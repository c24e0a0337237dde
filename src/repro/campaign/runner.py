"""Campaign execution: resumable, crash-safe, failure-tolerant.

The runner is structured as three explicit phases that the distributed
fabric (:mod:`repro.campaign.fabric`) reuses verbatim:

* **Submit** — :func:`submit_campaign` registers the spec in the
  :class:`~repro.campaign.store.CampaignStore` and expands it into
  runnable points (applying the ``verify`` transform).
* **Lease** — deciding which pending points this executor runs.  The
  local runner "leases" everything not already stored ``ok`` under a
  matching config hash; fabric workers lease bounded batches through
  the store's atomic lease table instead.
* **Report** — :class:`PointReporter` journals every outcome through
  the store (``record_success``/``record_failure`` plus the
  timeseries/alerts side tables), feeds the heartbeat monitor and the
  caller's progress callback, and settles terminal failures so
  progress always reaches ``total``.

Campaign-level guarantees on top of :func:`repro.sim.parallel.run_reports`:

* **Resume** — points already stored ``ok`` with a matching config hash
  are skipped, so a killed-and-restarted run picks up exactly where it
  stopped (a changed spec or library version re-runs the stale points).
* **Crash safety** — every point is journaled via the executor's
  ``on_result`` hook the moment it lands, in its own SQLite
  transaction; an interrupt between points loses only in-flight work.
* **Failure tolerance** — a point whose simulation raises is retried
  with bounded backoff (``retries`` attempts, sleeping
  ``backoff * 2**attempt`` capped at ``backoff_cap``); a point that
  keeps failing is recorded as ``failed``, *settles into the done
  count* (shown as ``done (N failed)``), and the campaign moves on
  instead of aborting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from ..obs import open_telemetry
from ..obs.trace import Tracer
from ..sim.parallel import PointFailure, run_reports, unstable_fields
from .monitor import CampaignMonitor, status_path
from .spec import CampaignPoint, CampaignSpec
from .store import CampaignStore, settled


@dataclass(frozen=True)
class CampaignPointStatus:
    """Progress record delivered once per campaign point."""

    point_id: str
    outcome: str  #: 'ok' | 'failed' | 'skipped'
    elapsed: float
    done: int  #: points settled so far (skips and terminal failures count)
    total: int  #: points in the campaign
    attempt: int  #: 1-based attempt number that produced the outcome


CampaignProgress = Callable[[CampaignPointStatus], None]


@dataclass
class CampaignRunStats:
    """What one ``run_campaign`` invocation did."""

    total: int = 0  #: points in the expanded spec
    skipped: int = 0  #: already stored ok with matching provenance
    ran: int = 0  #: simulated successfully this invocation
    failed: int = 0  #: exhausted retries; recorded as failures
    retried: int = 0  #: extra attempts spent on flaky points
    wall_time: float = 0.0  #: simulation seconds (not wall clock)
    failures: List[str] = field(default_factory=list)  #: failed point ids

    @property
    def complete(self) -> bool:
        return self.skipped + self.ran == self.total


# ----------------------------------------------------------------------
# Submit phase
# ----------------------------------------------------------------------

def submit_campaign(
    spec: CampaignSpec,
    store: CampaignStore,
    verify: bool = False,
) -> List[CampaignPoint]:
    """Register ``spec`` in the store and expand it into runnable points.

    ``verify=True`` arms the repro.verify invariant checker on every
    point's config (changing its hash, so unverified stored rows re-run
    rather than resume).  Fabric workers call this against the spec
    they load back from the store, so every executor sees the same
    point list in the same order.

    A point whose config has no hash is refused, before anything is
    written, with a ``ValueError`` naming it and the field: resume
    compares hashes, so such a point could never be told apart from
    the same point with that field changed.
    """
    points = list(spec.points())
    if verify:
        points = [
            replace(point, config=point.config.with_(verify=True))
            for point in points
        ]
    for point in points:
        if point.config_hash is None:
            raise ValueError(
                f"campaign {spec.name!r} point {point.point_id!r}: "
                f"{', '.join(unstable_fields(point.config))} has no "
                "stable repr, so the point has no config hash to resume on"
            )
    store.register(spec)
    return points


def point_candidates(
    points: List[CampaignPoint],
) -> List[Tuple[str, Optional[str]]]:
    """The ``(point_id, expected config hash)`` pairs the lease phase keys on."""
    return [
        (point.point_id, point.config_hash)
        for point in points
    ]


# ----------------------------------------------------------------------
# Report phase
# ----------------------------------------------------------------------

class PointReporter:
    """Journals settled points: store + heartbeat monitor + progress.

    One reporter serves both the local runner and a fabric worker; the
    only difference is that workers pass a lease ``fence`` so a write
    that lost its lease to a reclaim is discarded (outcome
    ``"fenced"``) instead of clobbering the new owner's row.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        store: CampaignStore,
        stats: CampaignRunStats,
        monitor: Optional[CampaignMonitor] = None,
        progress: Optional[CampaignProgress] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.spec = spec
        self.store = store
        self.stats = stats
        self.monitor = monitor
        self.progress = progress
        #: with a tracer attached, every journaled point also lands a
        #: closed ``run`` span (riding the fenced result transaction)
        #: and a ``journal`` span timing the store write itself.
        self.tracer = tracer
        self.settled = 0  #: ok + skipped + terminally failed

    def skip(self, point: CampaignPoint) -> None:
        """Settle a point already stored ok with matching provenance."""
        self.stats.skipped += 1
        self.settled += 1
        if self.monitor is not None:
            self.monitor.on_point(point, "skipped", 0.0)
        self._progress(point, "skipped", 0.0, 0)

    def _trace_payload(
        self,
        point: CampaignPoint,
        elapsed: float,
        attempt: int,
        status: str,
        error: Optional[str],
        parent: object,
        extra_spans: Optional[List[dict]],
    ) -> Tuple[Optional[List[dict]], Optional[object]]:
        """The span rows riding the fenced write + the open journal span.

        The ``run`` span is synthesised closed at journal time (the
        simulation already happened; ``start_ts`` backdates by
        ``elapsed``) so it can ride the result's transaction — a
        fenced-out write discards it along with ``extra_spans`` (a
        fabric worker's closed lease span).  The ``journal`` span is
        returned open: it times the store write itself, so the caller
        closes and journals it after the write returns.
        """
        if self.tracer is None:
            return None, None
        now = time.time()
        attrs: dict = {"attempt": attempt}
        if error is not None:
            attrs["error"] = error[:200]
        run = self.tracer.start_span(
            f"run {point.point_id}", kind="run", parent=parent,
            point_id=point.point_id, start_ts=now - elapsed,
            attrs=attrs,
        )
        run = self.tracer.end_span(run, status, end_ts=now)
        journal = self.tracer.start_span(
            f"journal {point.point_id}", kind="journal", parent=run,
            point_id=point.point_id,
        )
        payload = [run.to_dict()]
        payload.extend(dict(span) for span in (extra_spans or []))
        return payload, journal

    def _close_journal(self, journal: Optional[object],
                       wrote: bool) -> None:
        """Close (and, if the result landed, journal) the journal span."""
        if journal is None or self.tracer is None:
            return
        done = self.tracer.end_span(journal,
                                    "ok" if wrote else "aborted")
        if wrote:
            self.store.record_spans(self.spec.name, [done.to_dict()])

    def report(
        self,
        point: CampaignPoint,
        result: object,
        elapsed: float,
        attempt: int,
        final: bool = False,
        fence: Optional[Tuple[str, int]] = None,
        parent: object = None,
        extra_spans: Optional[List[dict]] = None,
    ) -> str:
        """Journal one landed result; returns the outcome recorded.

        ``result`` is a report dict or a
        :class:`~repro.sim.parallel.PointFailure`.  ``final`` marks a
        failure that will not be retried: it settles into the done
        count (the ``done (N failed)`` state) so progress and ETA
        reach ``total`` instead of stalling just below it.  Returns
        ``"ok"``, ``"failed"``, or ``"fenced"`` (fenced-out write,
        nothing journaled).

        With a tracer attached, ``parent`` (a span or context — a
        fabric worker passes the point's lease span) parents the
        synthesised ``run`` span, and ``extra_spans`` (span dicts)
        ride the same fenced transaction as the result row.
        """
        if isinstance(result, PointFailure):
            # Journal the failure immediately; a later successful
            # retry overwrites the row (INSERT OR REPLACE).
            spans, journal = self._trace_payload(
                point, elapsed, attempt, "error", result.error,
                parent, extra_spans,
            )
            wrote = self.store.record_failure(
                self.spec.name, point, result.error, elapsed,
                attempts=attempt, fence=fence, spans=spans,
            )
            self._close_journal(journal, wrote)
            if not wrote:
                return "fenced"
            if final:
                self.settled += 1
                self.stats.failed += 1
                self.stats.failures.append(point.point_id)
            if self.monitor is not None:
                self.monitor.on_point(point, "failed", elapsed,
                                      final=final)
            self._progress(point, "failed", elapsed, attempt)
            return "failed"

        report = result if isinstance(result, dict) else None
        projected = _project(result, self.spec.metrics)
        spans, journal = self._trace_payload(
            point, elapsed, attempt, "ok", None, parent, extra_spans,
        )
        wrote = self.store.record_success(
            self.spec.name, point, projected, elapsed,
            attempts=attempt, fence=fence, spans=spans,
        )
        self._close_journal(journal, wrote)
        if not wrote:
            return "fenced"
        # Interval samples (configs with sample_interval set) land in
        # their own table; _project keeps them out of the flat metrics
        # row.  Alert episodes journal the same way (schema-v3 table).
        # Both only after the fenced write landed, so a stale worker
        # never rewrites the current owner's side tables either.
        series = report.get("timeseries") if report else None
        if series:
            self.store.record_timeseries(self.spec.name, point, series)
        episodes = report.get("alerts") if report else None
        if episodes:
            self.store.record_alerts(self.spec.name, point, episodes)
        if self.monitor is not None:
            # The journal sees the full report (pre-_project), so the
            # heartbeat's kill/retransmit rates come from counters the
            # stored row may not keep.
            self.monitor.on_point(point, "ok", elapsed, report)
        self.settled += 1
        self.stats.ran += 1
        self.stats.wall_time += elapsed
        self._progress(point, "ok", elapsed, attempt)
        return "ok"

    def _progress(self, point: CampaignPoint, outcome: str,
                  elapsed: float, attempt: int) -> None:
        if self.progress is not None:
            self.progress(CampaignPointStatus(
                point.point_id, outcome, elapsed, self.settled,
                self.stats.total, attempt,
            ))


# ----------------------------------------------------------------------
# The local (single-executor) runner
# ----------------------------------------------------------------------

def run_campaign(
    spec: CampaignSpec,
    store: CampaignStore,
    workers: Optional[int] = 1,
    retries: int = 2,
    backoff: float = 0.25,
    backoff_cap: float = 5.0,
    progress: Optional[CampaignProgress] = None,
    verify: bool = False,
    heartbeat: Optional[float] = 1.0,
    heartbeat_path: Optional[str] = None,
    serve: Optional[object] = None,
    trace: bool = False,
) -> CampaignRunStats:
    """Execute (or resume) a campaign; every outcome lands in ``store``.

    Returns run statistics; raises only on programmer error or
    interrupt — simulation failures are journaled, retried up to
    ``retries`` extra attempts, then recorded as ``failed`` rows.

    ``verify=True`` arms the repro.verify invariant checker on every
    point.  The verify flag changes each point's config hash, so a
    campaign first run unverified re-runs (rather than resumes) its
    points under checking.

    ``heartbeat`` (seconds between writes; None disables) keeps an
    atomic ``<name>.status.json`` live next to the store for
    ``cr-sim campaign watch``; ``heartbeat_path`` overrides its
    location (required for in-memory stores, which otherwise skip the
    heartbeat).

    ``serve`` starts a live telemetry HTTP server for the duration of
    the campaign: a ``[HOST:]PORT`` spec / port / ``True`` (loopback,
    ephemeral port), or an already-started
    :class:`repro.obs.server.TelemetryServer` (which the caller then
    owns and stops).  The campaign monitor republishes every heartbeat
    to it, so ``/metrics``, ``/health``, and ``/status`` stay live
    while points execute.

    ``trace=True`` arms distributed tracing: a root span for the run,
    a closed ``run`` + ``journal`` span pair per executed point, all
    journaled into the store's ``spans`` table for ``cr-sim campaign
    timeline``.  Overhead is budgeted (<3%) and measured by
    ``benchmarks/bench_trace_overhead.py``.

    To shard a campaign across many worker processes or hosts instead,
    see :func:`repro.campaign.fabric.run_fabric` and
    ``cr-sim campaign run --workers-fabric N``.
    """
    server, owns_server = open_telemetry(serve)
    stats = CampaignRunStats()
    tracer: Optional[Tracer] = None
    root = None
    logger = None
    try:
        # -- submit phase -----------------------------------------------
        if trace:
            from ..obs.log import StructuredLogger, campaign_log_path

            tracer = Tracer(worker_id="local")
            root = tracer.start_span(
                f"campaign {spec.name}", kind="root",
                attrs={"executor": "local"},
            )
            logger = StructuredLogger(
                campaign_log_path(store.path, spec.name, "local"),
                worker_id="local", tracer=tracer,
            )
        points = submit_campaign(spec, store, verify=verify)
        stats.total = len(points)
        states = store.result_states(spec.name)
        if logger is not None:
            # Journal the root open so `campaign timeline` on a live
            # run shows the in-flight trace; teardown closes it.
            store.record_spans(spec.name, [root.to_dict()])
            logger.info("campaign_started", campaign=spec.name,
                        points=len(points), executor="local")

        monitor: Optional[CampaignMonitor] = None
        if heartbeat is not None:
            target = heartbeat_path or status_path(store.path, spec.name)
            if target is not None or server is not None:
                monitor = CampaignMonitor(
                    spec.name, len(points), target, interval=heartbeat,
                    server=server,
                )

        reporter = PointReporter(spec, store, stats, monitor=monitor,
                                 progress=progress, tracer=tracer)

        # -- lease phase (local: claim everything not already settled) -
        # max_attempts=None: the retry budget is per invocation, so a
        # stored failure is pending again.  A point with no row is not
        # hashed.
        pending: List[CampaignPoint] = []
        for point in points:
            stored = states.get(point.point_id)
            if stored is not None and settled(
                stored, point.config_hash, None
            ):
                reporter.skip(point)
                continue
            pending.append(point)

        # -- run + report phases ----------------------------------------
        attempt = 1
        while pending:
            failed_now: List[CampaignPoint] = []

            def journal(index: int, report: object, elapsed: float,
                        cached: bool) -> None:
                point = pending[index]
                final = (isinstance(report, PointFailure)
                         and attempt > retries)
                outcome = reporter.report(point, report, elapsed, attempt,
                                          final=final)
                if outcome == "failed" and not final:
                    failed_now.append(point)

            run_reports(
                [point.config for point in pending],
                workers=workers,
                on_result=journal,
                failures="return",
            )

            if not failed_now:
                break
            stats.retried += len(failed_now)
            time.sleep(min(backoff * (2 ** (attempt - 1)), backoff_cap))
            pending = failed_now
            attempt += 1

        if monitor is not None:
            monitor.finalize()
    finally:
        # Teardown runs on an interrupt between points too: the trace
        # keeps its "no span left open" guarantee, the log is closed and
        # a server this call started is stopped.
        if logger is not None:
            logger.log("info" if stats.complete else "warning",
                       "campaign_settled", campaign=spec.name,
                       ran=stats.ran, skipped=stats.skipped,
                       failed=stats.failed)
            closed = tracer.end_span(
                root, "ok" if stats.complete else "error",
                attrs={"ran": stats.ran, "skipped": stats.skipped,
                       "failed": stats.failed},
            )
            store.record_spans(spec.name, [closed.to_dict()])
            # Force-close stragglers (an interrupt between a point's
            # open journal span and its close).
            store.close_open_spans(spec.name)
            logger.close()
        if owns_server:
            server.stop()
    return stats


def _project(report: object, metrics: tuple) -> dict:
    """Keep the spec's metrics (plus any counters they imply) from a report.

    Metrics missing from a report are dropped rather than fabricated —
    a stored row never contains values the simulation didn't produce.
    """
    assert isinstance(report, dict)
    return {key: report[key] for key in metrics if key in report}
