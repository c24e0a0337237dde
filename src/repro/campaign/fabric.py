"""Distributed campaign fabric: lease-based multi-worker sharding.

The paper's stance is recovery over avoidance — kill a deadlocked worm
and retry, rather than constraining routing to prevent the deadlock.
The fabric applies the same stance to campaign orchestration: instead
of a scheduler that must never lose a worker, any number of
:class:`Worker` processes (same host or many hosts sharing the store
path) *lease* pending points from the WAL-mode
:class:`~repro.campaign.store.CampaignStore`, simulate them one at a
time in their own process, and journal results through the usual
``record_*`` store methods.  A worker is the unit of parallelism: more
throughput is more workers.  Worker loss is recovered, not prevented:

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

Whether a point is done is the store's to say: the one
:func:`~repro.campaign.store.settled` rule, with the attempt budget
the stored spec carries (``max_attempts``), so workers, the
coordinator and any reader agree without being told.  The
:class:`Coordinator` is a :class:`~repro.campaign.monitor.CampaignView`
(the heartbeat read from the store, as ``cr-sim campaign watch``
reads it) that first registers the grid (submit phase); its heartbeat
adds a per-worker liveness pane (heartbeats, live and expired leases,
reclaim totals).  It owns no scheduling,
publishes ``cr_fabric_*`` gauges through the
:class:`~repro.obs.server.TelemetryServer`, and is restartable: if it
dies, workers keep leasing and journaling; a new coordinator folds
what already settled and carries on.

Entry points: ``cr-sim campaign run <spec> --workers N`` (N > 1:
coordinator + N local worker processes, :func:`run_fabric`), ``cr-sim
campaign worker <name>`` (one worker against an existing campaign,
e.g. on another host), and :func:`~repro.campaign.runner.run_campaign`
(plain ``cr-sim campaign run``), which is one in-process
:class:`Worker` over the caller's store, wrapped in a
:class:`Coordinator` when it serves or traces; or :func:`run_fabric` /
:class:`Worker` from Python.
"""

from __future__ import annotations

import itertools
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs import open_telemetry
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Span, SpanContext, Tracer
from ..sim.simulator import run_simulation
from .monitor import DEFAULT_TTL, CampaignView, build_info_gauge
from .runner import (
    CampaignProgress,
    CampaignRunStats,
    PointReporter,
    campaign_points,
    point_candidates,
    submit_campaign,
)
from .spec import CampaignPoint, CampaignSpec
from .store import CampaignStore, Lease

#: default points leased per batch: small enough that worker loss costs
#: little, large enough to amortise the lease transaction.
DEFAULT_BATCH = 2

#: default idle poll (seconds) while other workers hold all the work.
DEFAULT_POLL = 0.25


#: how many worker ids this process has handed out
_issued = itertools.count(1)


def default_worker_id() -> str:
    """A worker identity unique across hosts sharing one store:
    ``<hostname>-<pid>`` for a process's first worker, then
    ``<hostname>-<pid>-<n>`` for its n-th."""
    base = f"{socket.gethostname()}-{os.getpid()}"
    n = next(_issued)
    return base if n == 1 else f"{base}-{n}"


# ----------------------------------------------------------------------
# Worker: lease -> run -> report, heartbeat-renewed
# ----------------------------------------------------------------------

class Worker:
    """One fabric worker: lease a batch, simulate it, journal, repeat.

    The loop is crash-safe by construction — a worker holds no state
    another worker cannot reconstruct from the store.  Between
    batches it re-reads the settlement state, so it exits as soon as
    every point is either stored ``ok`` under the current config hash
    or terminally failed (``stats.settled``).  It runs its batch one
    point at a time, in its own process: a point whose simulation
    raises is journaled as a failed attempt, not raised.

    A daemon heartbeat thread (its own SQLite connection) renews the
    worker's held leases every ``ttl / 3`` seconds and upserts the
    worker's liveness row the coordinator aggregates.  Kill the
    process at any moment: the thread dies with it, the leases expire,
    and survivors reclaim the in-flight points.

    ``trace=True`` journals the worker's spans into the store, under
    the campaign's newest open root span (the coordinator's) when there
    is one, else in a trace of the worker's own.  ``stats`` tallies
    points run, skipped (settled by others), failed and retried, and
    the worker's fenced writes, reclaims and lease batches.
    """

    def __init__(
        self,
        campaign: str,
        db_path: str,
        worker_id: Optional[str] = None,
        batch: int = DEFAULT_BATCH,
        ttl: float = DEFAULT_TTL,
        poll: float = DEFAULT_POLL,
        progress: Optional[CampaignProgress] = None,
        trace: bool = False,
    ) -> None:
        self.campaign = campaign
        self.db_path = str(db_path)
        self.worker_id = worker_id or default_worker_id()
        self.batch = max(1, int(batch))
        self.ttl = float(ttl)
        self.poll = float(poll)
        self.progress = progress
        self.trace = bool(trace)
        self.stats = CampaignRunStats()
        #: journals this worker's points once :meth:`run` starts
        self.reporter: Optional[PointReporter] = None
        self._held: Dict[str, Lease] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._tracer: Optional[Tracer] = None
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
        current = (self._tracer.current()
                   if self._tracer is not None else None)
        store.worker_heartbeat(
            self.campaign, self.worker_id, state=state,
            pid=os.getpid(), host=socket.gethostname(),
            done=self.stats.ran, failed=self.reporter.failed_attempts,
            leases=len(held_ids), reclaims=self.stats.reclaims,
            span=(f"{current.name} {current.span_id[:8]}"
                  if current is not None else ""),
            spans=(self._tracer.finished
                   if self._tracer is not None else 0),
        )

    def _heartbeat_loop(self) -> None:
        store = CampaignStore(self.db_path)
        try:
            while not self._stop.wait(self.ttl / 3.0):
                self._beat(store, "running")
        finally:
            store.close()

    # -- the lease -> run -> report loop --------------------------------

    def run(self, store: Optional[CampaignStore] = None) -> CampaignRunStats:
        """Work the campaign until it settles; returns this worker's stats.

        ``store``: an open connection to ``db_path`` to use instead of
        one of the worker's own.  Raises :class:`LookupError` when the campaign was never
        registered in the store (submit the spec first — the
        coordinator, ``run_campaign``, or ``cr-sim campaign run`` all
        do).
        """
        owned = store is None
        if owned:
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
            if owned:
                store.close()

    def _arm(self, store: CampaignStore) -> None:
        """Bring up this worker's tracer and open its session span."""
        if not self.trace:
            return
        # Join the campaign's newest open root span (the coordinator's).
        # With none, the worker starts a trace of its own: it still
        # runs; the timeline just shows the discontinuity.
        row = store.open_root_span(self.campaign)
        root = (SpanContext(row["trace_id"], row["span_id"])
                if row is not None else None)
        self._tracer = Tracer(worker_id=self.worker_id, root=root)
        self._session = self._tracer.start_span(
            f"worker {self.worker_id}", kind="worker",
            attrs={"pid": os.getpid(), "host": socket.gethostname()},
        )
        # Journal the session span open: a SIGKILLed worker leaves it
        # behind for the coordinator's settle-time sweep to close.
        store.record_spans(self.campaign, [self._session.to_dict()])

    def _disarm(self, store: CampaignStore) -> None:
        """Close the session span on an orderly exit."""
        if self._tracer is not None and self._session is not None:
            done = self._tracer.end_span(
                self._session,
                "ok" if self.stats.settled else "error",
                attrs={"ran": self.stats.ran,
                       "failed": self.reporter.failed_attempts,
                       "fenced": self.stats.fenced},
            )
            store.record_spans(self.campaign, [done.to_dict()])

    def _run(self, store: CampaignStore,
             spec: CampaignSpec) -> CampaignRunStats:
        # Expand the stored spec: expansion is deterministic and
        # ``verify`` and the attempt budget are part of the stored spec,
        # so every worker sees the identical point list and settles it
        # by the same rule.  A worker never registers: the campaign's
        # ``updated_at`` is the run's start, which the submitter stamped.
        points = campaign_points(spec)
        budget = spec.max_attempts
        by_id = {point.point_id: point for point in points}
        candidates = point_candidates(points)
        self.stats.total = len(points)

        self._arm(store)
        reporter = self.reporter = PointReporter(
            spec, store, self.stats, progress=self.progress,
            tracer=self._tracer)

        self._beat(store, "running")  # visible before the first lease
        thread = None
        if self.db_path != ":memory:":
            # Renewal needs a second connection.  No other connection
            # sees an in-memory store, so nobody could reclaim from it.
            thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"cr-fabric-heartbeat:{self.worker_id}",
                daemon=True,
            )
            thread.start()
        pending = points
        try:
            while True:
                pending = reporter.skip_settled(
                    pending, store.result_states(self.campaign), budget)
                if not pending:
                    break
                leases = store.acquire_leases(
                    self.campaign, self.worker_id, candidates,
                    limit=self.batch, ttl=self.ttl, max_attempts=budget,
                )
                if not leases:
                    # Everything pending is leased elsewhere: wait for
                    # completion, a failure, or an expiry to reclaim.
                    time.sleep(self.poll)
                    continue
                self._run_batch(store, reporter, by_id, leases, budget)
        finally:
            self._stop.set()
            if thread is not None:
                thread.join(timeout=self.ttl)
            self._disarm(store)
            self._beat(store, "finished" if self.stats.settled
                       else "stopped")
        return self.stats

    def _run_batch(
        self,
        store: CampaignStore,
        reporter: PointReporter,
        by_id: Dict[str, CampaignPoint],
        leases: Sequence[Lease],
        budget: int,
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

        try:
            for lease in leases:
                self._run_point(reporter, by_id[lease.point_id], lease,
                                budget)
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

    def _run_point(
        self,
        reporter: PointReporter,
        point: CampaignPoint,
        lease: Lease,
        budget: int,
    ) -> None:
        """Simulate one leased point and journal it, fenced on the
        lease; a raising simulation journals its ``repr()``."""
        start = time.perf_counter()
        try:
            result, error = run_simulation(point.config).report, None
        except Exception as exc:
            result, error = None, repr(exc)
        elapsed = time.perf_counter() - start
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
            point, result, elapsed, lease.attempt,
            final=error is not None and lease.attempt >= budget,
            fence=(self.worker_id, lease.attempt),
            parent=parent, extra_spans=extra, error=error,
        )
        # The fenced store write released the lease atomically with
        # the journal row; drop it from the renewal set.
        with self._lock:
            self._held.pop(point.point_id, None)
        if outcome == "fenced":
            self.stats.fenced += 1


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


class Coordinator(CampaignView):
    """Submits the grid, then aggregates fabric state until it settles.

    Owns no scheduling — workers lease autonomously — so a coordinator
    crash never stalls the campaign; restart it and aggregation
    resumes.  Each :meth:`poll` reads the view's
    :meth:`~CampaignView.heartbeat` (a fresh coordinator folds
    everything already settled) to know when the campaign has settled
    and, with a :class:`~repro.obs.server.TelemetryServer` attached,
    publishes the ``cr_campaign_*`` and ``cr_fabric_*`` metrics folded
    from it on ``/metrics``.  The attempt budget is the spec's
    ``max_attempts``.
    """

    fabric = True

    def __init__(
        self,
        spec: CampaignSpec,
        store: CampaignStore,
        interval: float = 1.0,
        ttl: float = DEFAULT_TTL,
        verify: bool = False,
        server: Optional[Any] = None,
        on_poll: Optional[Callable[[Dict[str, Any]], None]] = None,
        trace: bool = False,
    ) -> None:
        self.interval = float(interval)
        self.on_poll = on_poll

        # -- tracing (armed by trace=True) -----------------------------
        self.trace = bool(trace)
        self.tracer: Optional[Tracer] = None
        self.root: Optional[Span] = None
        self.trace_registry: Optional[MetricsRegistry] = None
        self._span_rows_seen = 0
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
            self.root = self.tracer.start_span(
                f"campaign {spec.name}", kind="root",
                attrs={"executor": "fabric"},
            )

        if self.tracer is not None:
            submit = self.tracer.start_span("submit", kind="submit")
            points = submit_campaign(spec, store, verify=verify)
            submit = self.tracer.end_span(
                submit, "ok", attrs={"points": len(points)})
            # Root journals open before any worker starts: it is the
            # trace context every worker looks up; submit journals
            # closed.
            store.record_spans(spec.name, [self.root.to_dict(),
                                           submit.to_dict()])
        else:
            points = submit_campaign(spec, store, verify=verify)
        super().__init__(spec, points, store, ttl=ttl)
        #: the expanded grid the submit registered
        self.points = points
        self.monitor.server = server
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

    # -- one aggregation step -------------------------------------------

    def heartbeat(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The view's heartbeat; sets the ``cr_fabric_*`` gauges from
        it."""
        status = super().heartbeat(now)
        fabric = status["fabric"]
        if self._c_spans is not None:
            counts = self.store.span_counts(self.spec.name)
            total_spans = sum(counts.values())
            if total_spans > self._span_rows_seen:
                self._c_spans.inc(total_spans - self._span_rows_seen)
                self._span_rows_seen = total_spans

        self._g_live.set(fabric["live_workers"])
        self._g_workers.set(fabric["workers_seen"])
        self._g_held.set(fabric["leases_held"])
        self._g_expired.set(fabric["leases_expired"])
        self._g_done.set(status["done"])
        self._g_failed.set(status["failed"])
        reclaims = fabric["reclaims"]
        if reclaims > self._last_reclaims:
            self._c_reclaims.inc(reclaims - self._last_reclaims)
            self._last_reclaims = reclaims
        return status

    def poll(self) -> Dict[str, Any]:
        """Fold what settled since the last poll; publish the
        :meth:`heartbeat`."""
        # Three registries, one scrape: cr_campaign_* from the monitor,
        # the cr_fabric_* gauges, and with tracing the
        # cr_trace_spans_total counter.
        registries = [self.registry]
        if self.trace_registry is not None:
            registries.append(self.trace_registry)
        status = self.publish(registries)
        if self.on_poll is not None:
            self.on_poll(status)
        return status

    # -- the aggregation loop -------------------------------------------

    def run(
        self,
        timeout: Optional[float] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> FabricStats:
        """Aggregate until the campaign settles; returns fabric stats.

        ``stop`` is an optional predicate polled each interval (e.g.
        "all my local worker processes exited"); ``timeout`` bounds the
        wall clock.  Either way the final metrics are published before
        returning, so a ``/metrics`` scrape never sees a vanishing run.
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
            failures=list(self._failures),
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
        closed = self.tracer.end_span(
            self.root, "ok" if stats.complete else "error",
            attrs={"ok": stats.ok, "failed": stats.failed,
                   "reclaims": stats.reclaims},
        )
        # Order matters: land the root's clean closure first, then
        # abort whatever is still open (a SIGKILLed worker's session
        # span, an orphan lease no survivor happened to reclaim).
        self.store.record_spans(self.spec.name, [closed.to_dict()])
        self.store.close_open_spans(self.spec.name)
        self.root = None  # settle is idempotent across run() calls


# ----------------------------------------------------------------------
# Local fan-out: coordinator + N worker subprocesses
# ----------------------------------------------------------------------

def _worker_env() -> Dict[str, str]:
    """The spawned worker's environment: this one, with this repro's
    ``src/`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_dir, env.get("PYTHONPATH")) if part
    )
    return env


def spawn_worker(
    campaign: str,
    db_path: str,
    worker_id: Optional[str] = None,
    trace: bool = False,
    flags: Sequence[str] = (),
) -> "subprocess.Popen[bytes]":
    """Launch one ``cr-sim campaign worker`` subprocess against a store.

    The campaign must already be registered (the coordinator's submit
    phase does this).  The child is a real OS process — SIGKILL it and
    the fabric's recovery path, not Python cleanup, puts its points
    back into play.  ``trace`` passes ``--trace``: the child joins the
    campaign's newest open root span in the store.  ``flags`` are
    further ``campaign worker`` flags (``--batch``, ``--ttl``,
    ``--poll``); without them the worker leases with its defaults.
    """
    cmd = [
        sys.executable, "-m", "repro.cli", "campaign", "worker",
        campaign, "--db", str(db_path), *flags,
    ]
    if worker_id:
        cmd += ["--worker-id", worker_id]
    if trace:
        cmd.append("--trace")
    return subprocess.Popen(
        cmd,
        env=_worker_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def run_fabric(
    spec: CampaignSpec,
    db_path: str,
    workers: int = 2,
    interval: float = 1.0,
    verify: bool = False,
    serve: Optional[object] = None,
    on_poll: Optional[Callable[[Dict[str, Any]], None]] = None,
    trace: bool = False,
) -> FabricStats:
    """Run a campaign sharded across ``workers`` local worker processes.

    The coordinator registers the grid, spawns the workers (none when
    every point is already settled), aggregates until every point
    settles (or all workers die), then reaps the children.  Raising
    inside aggregation still terminates the children.  Each worker
    leases with the :class:`Worker` defaults (batch
    :data:`DEFAULT_BATCH`, lease TTL
    :data:`~repro.campaign.monitor.DEFAULT_TTL`).  ``serve`` attaches a
    telemetry server exactly like
    :func:`~repro.campaign.runner.run_campaign`.
    """
    server, owns_server = open_telemetry(serve)
    store = CampaignStore(db_path)
    procs: List["subprocess.Popen[bytes]"] = []
    try:
        coordinator = Coordinator(
            spec, store, interval=interval, verify=verify,
            server=server, on_poll=on_poll, trace=trace,
        )
        # A campaign the store already holds settled spawns no worker.
        coordinator.read()
        if coordinator.monitor.done < coordinator.total:
            procs = [
                spawn_worker(spec.name, db_path,
                             worker_id=f"worker-{index + 1}", trace=trace)
                for index in range(max(1, int(workers)))
            ]
        stats = coordinator.run(
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
