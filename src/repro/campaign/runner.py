"""Campaign execution: resumable, crash-safe, failure-tolerant.

The runner is structured as three explicit phases that the distributed
fabric (:mod:`repro.campaign.fabric`) reuses verbatim:

* **Submit** — :func:`submit_campaign` expands the spec into runnable
  points and registers it in the
  :class:`~repro.campaign.store.CampaignStore` (``verify`` and the
  ``max_attempts`` budget go into the stored spec) only when there is
  something to record: a new campaign, a changed spec, or a point not
  yet settled.  A settled re-run writes nothing, so the campaign's
  ``updated_at`` stays the start of the last run that had work to do.
  Fabric workers expand the stored spec (:func:`campaign_points`) and
  never register.
* **Lease** — deciding which pending points this executor runs.  The
  local runner "leases" everything the store does not hold
  :func:`~repro.campaign.store.settled`; fabric workers lease bounded
  batches through the store's atomic lease table instead.
* **Report** — :class:`PointReporter` journals every outcome through
  the store (``record_success``/``record_failure``; a success's
  timeseries and alert episodes ride the same transaction), feeds the
  caller's progress callback, and settles terminal failures so
  progress always reaches ``total``.

The store is the campaign's only record.  The heartbeat is read back
from it, never fed: given a telemetry server, the local runner
publishes a :class:`~repro.campaign.monitor.CampaignView` over its own
store exactly as the fabric coordinator does, so a local run, a fabric
run and ``cr-sim campaign watch`` show the same heartbeat for the same
journal.

Campaign-level guarantees on top of :func:`repro.sim.parallel.run_reports`:

* **Resume** — settled points are skipped, so a killed-and-restarted
  run picks up exactly where it stopped (a changed spec or library
  version re-runs the stale ``ok`` points; a failure keeps counting its
  journaled attempts).
* **Crash safety** — every point is journaled via the executor's
  ``on_result`` hook the moment it lands, in its own SQLite
  transaction; an interrupt between points loses only in-flight work.
* **Failure tolerance** — a point whose simulation raises is retried
  with bounded backoff (up to the spec's ``max_attempts``, sleeping
  ``backoff * 2**round`` capped at 5 s); a point that
  keeps failing is recorded as ``failed``, *settles into the done
  count* (shown as ``done (N failed)``), and the campaign moves on
  instead of aborting.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..obs import open_telemetry
from ..obs.trace import Tracer
from ..sim.parallel import PointFailure, run_reports, unstable_fields
from .monitor import CampaignView
from .spec import CampaignPoint, CampaignSpec
from .store import CampaignStore, attempts_used, settled


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
    failed: int = 0  #: terminal failures (attempt budget used up)
    retried: int = 0  #: extra attempts spent on flaky points
    wall_time: float = 0.0  #: simulation seconds (not wall clock)
    failures: List[str] = field(default_factory=list)  #: failed point ids

    @property
    def complete(self) -> bool:
        return self.skipped + self.ran == self.total


# ----------------------------------------------------------------------
# Submit phase
# ----------------------------------------------------------------------

def campaign_points(spec: CampaignSpec) -> List[CampaignPoint]:
    """``spec`` expanded into runnable points, in a fixed order.

    A point whose config has no hash is refused with a ``ValueError``
    naming it and the field: resume compares hashes, so such a point
    could never be told apart from the same point with that field
    changed.  Fabric workers expand the spec they load back from the
    store here, so every executor sees the same point list.
    """
    points = list(spec.points())
    for point in points:
        if point.config_hash is None:
            raise ValueError(
                f"campaign {spec.name!r} point {point.point_id!r}: "
                f"{', '.join(unstable_fields(point.config))} has no "
                "stable repr, so the point has no config hash to resume on"
            )
    return points


def submit_campaign(
    spec: CampaignSpec,
    store: CampaignStore,
    verify: bool = False,
) -> List[CampaignPoint]:
    """Expand ``spec`` into runnable points, registering it in the store
    unless the store already holds it settled.

    ``verify=True`` registers the spec with ``"verify": true`` in every
    grid's ``base``, arming the repro.verify invariant checker on every
    point (changing its hash, so unverified stored rows re-run rather
    than resume).  A point with no config hash is refused (see
    :func:`campaign_points`) before anything is written.
    """
    return _submit(spec, store, verify)[0]


def _submit(
    spec: CampaignSpec,
    store: CampaignStore,
    verify: bool,
) -> Tuple[List[CampaignPoint], Dict[str, Dict]]:
    """:func:`submit_campaign`, plus the result states it read.

    ``register`` runs only for a campaign the store lacks, a stored
    spec whose JSON differs, or a point that is not settled: its
    ``updated_at`` write is the start stamp ``campaign watch`` reads,
    and a settled re-run has nothing to start.
    """
    if verify:
        spec = spec.with_base(verify=True)
    points = campaign_points(spec)
    states = store.result_states(spec.name)
    budget = spec.max_attempts
    if (store.spec_text(spec.name) != json.dumps(spec.to_dict())
            or any(settled(states.get(point.point_id), point.config_hash,
                           budget) is None
                   for point in points)):
        store.register(spec)
    return points, states


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
    """Journals settled points: store + progress.

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
        progress: Optional[CampaignProgress] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.spec = spec
        self.store = store
        self.stats = stats
        self.progress = progress
        #: with a tracer attached, every journaled point also lands a
        #: closed ``run`` span (riding the fenced result transaction)
        #: and a ``journal`` span timing the store write itself.
        self.tracer = tracer

    def skip(self, point: CampaignPoint, failed_attempts: int = 0) -> None:
        """Settle a point the journal already holds settled: stored ok
        with matching provenance or, given ``failed_attempts``, failed
        with the attempt budget used up."""
        if failed_attempts:
            self.stats.failed += 1
            self.stats.failures.append(point.point_id)
            self._progress(point, "failed", 0.0, failed_attempts)
            return
        self.stats.skipped += 1
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
                self.stats.failed += 1
                self.stats.failures.append(point.point_id)
            self._progress(point, "failed", elapsed, attempt)
            return "failed"

        projected = _project(result, self.spec.metrics)
        spans, journal = self._trace_payload(
            point, elapsed, attempt, "ok", None, parent, extra_spans,
        )
        # Interval samples (configs with sample_interval set) and alert
        # episodes land in their own tables; _project keeps them out of
        # the flat metrics row.  They ride the result's fenced
        # transaction, so a point is never settled without them and a
        # stale worker never rewrites the current owner's side tables.
        wrote = self.store.record_success(
            self.spec.name, point, projected, elapsed,
            attempts=attempt, fence=fence, spans=spans,
            series=result.get("timeseries"), alerts=result.get("alerts"),
        )
        self._close_journal(journal, wrote)
        if not wrote:
            return "fenced"
        self.stats.ran += 1
        self.stats.wall_time += elapsed
        self._progress(point, "ok", elapsed, attempt)
        return "ok"

    def _progress(self, point: CampaignPoint, outcome: str,
                  elapsed: float, attempt: int) -> None:
        if self.progress is not None:
            stats = self.stats
            self.progress(CampaignPointStatus(
                point.point_id, outcome, elapsed,
                stats.ran + stats.skipped + stats.failed, stats.total,
                attempt,
            ))


# ----------------------------------------------------------------------
# The local (single-executor) runner
# ----------------------------------------------------------------------

def run_campaign(
    spec: CampaignSpec,
    store: CampaignStore,
    workers: Optional[int] = 1,
    backoff: float = 0.25,
    progress: Optional[CampaignProgress] = None,
    verify: bool = False,
    heartbeat: Optional[float] = 1.0,
    serve: Optional[object] = None,
    trace: bool = False,
) -> CampaignRunStats:
    """Execute (or resume) a campaign; every outcome lands in ``store``.

    Returns run statistics; raises only on programmer error or
    interrupt — simulation failures are journaled and retried until
    the spec's ``max_attempts`` are used up, counting the attempts the
    journal already holds, then recorded as terminal ``failed`` rows
    (which a resume leaves settled, as every executor does).

    ``verify=True`` arms the repro.verify invariant checker on every
    point.  The verify flag changes each point's config hash, so a
    campaign first run unverified re-runs (rather than resumes) its
    points under checking.

    ``heartbeat`` (seconds; None disables) publishes the campaign's
    :class:`~repro.campaign.monitor.CampaignView` of ``store`` to the
    ``serve`` server once after the resume pass, then at most once
    every ``heartbeat`` seconds as points are journaled, and once at
    the end.  Without a server nothing is published (``cr-sim campaign
    watch`` reads the store itself).

    ``serve`` starts a live telemetry HTTP server for the duration of
    the campaign: a ``[HOST:]PORT`` spec / port / ``True`` (loopback,
    ephemeral port), or an already-started
    :class:`repro.obs.server.TelemetryServer` (which the caller then
    owns and stops).  Every heartbeat is published to it too, so
    ``/metrics``, ``/health``, and ``/status`` stay live while points
    execute.

    ``trace=True`` arms distributed tracing: a root span for the run,
    a closed ``run`` + ``journal`` span pair per executed point, all
    journaled into the store's ``spans`` table for ``cr-sim campaign
    timeline``.  Overhead is budgeted (<3%) and asserted by
    ``benchmarks/bench_overhead.py``.

    To shard a campaign across many worker processes or hosts instead,
    see :func:`repro.campaign.fabric.run_fabric` and
    ``cr-sim campaign run --workers-fabric N``.
    """
    server, owns_server = open_telemetry(serve)
    stats = CampaignRunStats()
    tracer: Optional[Tracer] = None
    root = None
    try:
        # -- submit phase -----------------------------------------------
        if trace:
            tracer = Tracer(worker_id="local")
            root = tracer.start_span(
                f"campaign {spec.name}", kind="root",
                attrs={"executor": "local"},
            )
        points, states = _submit(spec, store, verify)
        stats.total = len(points)
        if tracer is not None:
            # Journal the root open so `campaign timeline` on a live
            # run shows the in-flight trace; teardown closes it.
            store.record_spans(spec.name, [root.to_dict()])

        view: Optional[CampaignView] = None
        if heartbeat is not None and server is not None:
            view = CampaignView(spec, points, store,
                                started=store.updated_at(spec.name))
            view.monitor.server = server

        reporter = PointReporter(spec, store, stats, progress=progress,
                                 tracer=tracer)

        # -- lease phase (local: claim everything not already settled) -
        # The one settlement rule, with the spec's attempt budget; a
        # pending failure resumes at the attempt after its journaled
        # one, a row of another config at attempt 1.
        budget = spec.max_attempts
        pending: List[CampaignPoint] = []
        attempts: Dict[str, int] = {}
        for point in points:
            stored = states.get(point.point_id)
            outcome = settled(stored, point.config_hash, budget)
            if outcome is not None:
                reporter.skip(point, stored["attempts"]
                              if outcome == "failed" else 0)
                continue
            attempts[point.point_id] = attempts_used(
                stored, point.config_hash) + 1
            pending.append(point)
        if view is not None:
            view.publish()
        published = time.monotonic()

        # -- run + report phases ----------------------------------------
        round_ = 0
        while pending:
            failed_now: List[CampaignPoint] = []

            def journal(index: int, report: object, elapsed: float,
                        cached: bool) -> None:
                nonlocal published
                point = pending[index]
                attempt = attempts[point.point_id]
                final = (isinstance(report, PointFailure)
                         and attempt >= budget)
                outcome = reporter.report(point, report, elapsed, attempt,
                                          final=final)
                if outcome == "failed" and not final:
                    attempts[point.point_id] = attempt + 1
                    failed_now.append(point)
                if (view is not None
                        and time.monotonic() - published >= heartbeat):
                    view.publish()
                    published = time.monotonic()

            run_reports(
                [point.config for point in pending],
                workers=workers,
                on_result=journal,
                failures="return",
            )

            if not failed_now:
                break
            stats.retried += len(failed_now)
            time.sleep(min(backoff * (2 ** round_), 5.0))
            pending = failed_now
            round_ += 1

        if view is not None:
            view.publish()
    finally:
        # Teardown runs on an interrupt between points too: the trace
        # keeps its "no span left open" guarantee and a server this call
        # started is stopped.
        if tracer is not None:
            closed = tracer.end_span(
                root, "ok" if stats.complete else "error",
                attrs={"ran": stats.ran, "skipped": stats.skipped,
                       "failed": stats.failed},
            )
            store.record_spans(spec.name, [closed.to_dict()])
            # Force-close stragglers (an interrupt between a point's
            # open journal span and its close).
            store.close_open_spans(spec.name)
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
