"""Campaign execution: resumable, crash-safe, failure-tolerant.

Every executor runs the same three phases:

* **Submit** — :func:`submit_campaign` expands the spec into runnable
  points and registers it in the
  :class:`~repro.campaign.store.CampaignStore` (``verify`` and the
  ``max_attempts`` budget go into the stored spec) only when there is
  something to record: a new campaign, a changed spec, or a point not
  yet settled.  A settled re-run writes nothing, so the campaign's
  ``updated_at`` stays the start of the last run that had work to do.
  Fabric workers expand the stored spec (:func:`campaign_points`) and
  never register.
* **Lease** — a fabric :class:`~repro.campaign.fabric.Worker` leases
  pending points a small batch at a time through the store's atomic
  lease table and simulates them one by one.  :func:`run_campaign` is
  one such worker, in-process, with the worker's defaults.
* **Report** — :class:`PointReporter` journals every outcome through
  the store (``record_success``/``record_failure``, fenced on the
  lease; a success's timeseries and alert episodes ride the same
  transaction), feeds the caller's progress callback, and settles
  terminal failures so progress always reaches ``total``.

The store is the campaign's only record.  The heartbeat is read back
from it, never fed: a local run given a telemetry server publishes the
metrics of the fabric :class:`~repro.campaign.fabric.Coordinator`'s
:class:`~repro.campaign.monitor.CampaignView` of its store, so a local
run, a fabric run and ``cr-sim campaign watch`` count the same points
for the same journal.

Campaign-level guarantees:

* **Resume** — settled points are skipped, so a restarted run picks up
  where it stopped (a changed spec or library version re-runs the
  stale ``ok`` points; a failure keeps counting its journaled
  attempts).  An interrupt or an exception releases the held leases,
  so a resume takes the points back at once; after a SIGKILL a resume
  waits out the dead run's lease TTL (15 s) on the batch it held and
  then reclaims it.
* **Crash safety** — every point is journaled the moment it lands, in
  its own SQLite transaction; a kill loses only in-flight work.
* **Failure tolerance** — a point whose simulation raises is leased
  again at its next attempt, up to the spec's ``max_attempts``; a
  point that keeps failing is recorded as ``failed``, *settles into
  the done count* (shown as ``done (N failed)``), and the campaign
  moves on instead of aborting.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..obs import open_telemetry
from ..obs.trace import Tracer
from ..sim.parallel import unstable_fields
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
    """What one run of a campaign (one fabric worker) did."""

    total: int = 0  #: points in the expanded spec
    skipped: int = 0  #: already stored ok with matching provenance
    ran: int = 0  #: simulated successfully this invocation
    failed: int = 0  #: terminal failures (attempt budget used up)
    retried: int = 0  #: extra attempts spent on flaky points
    fenced: int = 0  #: stale results discarded (lease lost to a reclaim)
    reclaims: int = 0  #: expired leases taken over
    batches: int = 0  #: lease batches acquired
    wall_time: float = 0.0  #: simulation seconds (not wall clock)
    failures: List[str] = field(default_factory=list)  #: failed point ids

    @property
    def complete(self) -> bool:
        """Every point is stored ok."""
        return self.skipped + self.ran == self.total

    @property
    def settled(self) -> bool:
        """Every point is stored ok or terminally failed."""
        return self.skipped + self.ran + self.failed == self.total


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
) -> Tuple[List[CampaignPoint], Dict[str, Dict], bool]:
    """:func:`submit_campaign`, plus the result states it read and
    whether any point is still pending.

    ``register`` runs only for a campaign the store lacks, a stored
    spec whose JSON differs, or a point that is not settled: its
    ``updated_at`` write is the start stamp ``campaign watch`` reads,
    and a settled re-run has nothing to start.
    """
    if verify:
        spec = spec.with_base(verify=True)
    points = campaign_points(spec)
    states = store.result_states(spec.name)
    pending = _pending(points, states, spec.max_attempts)
    if pending or store.spec_text(spec.name) != json.dumps(spec.to_dict()):
        store.register(spec)
    return points, states, pending


def _pending(points: List[CampaignPoint], states: Dict[str, Dict],
             budget: int) -> bool:
    """Is any of ``points`` not :func:`settled` in ``states``?"""
    return any(settled(states.get(point.point_id), point.config_hash,
                       budget) is None
               for point in points)


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

    Every executor journals through one: a fabric worker passes its
    lease as the ``fence``, so a write that lost its lease to a reclaim
    is discarded (outcome ``"fenced"``) instead of clobbering the new
    owner's row.  Each point settles into the stats once, whether this
    reporter journaled it or :meth:`skip_settled` found it settled.
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
        #: the point ids this reporter journaled settled
        self._journaled: set = set()

    @property
    def failed_attempts(self) -> int:
        """Failed attempts this reporter journaled, retried or final
        (a journaled settled point that did not run ok failed)."""
        return self.stats.retried + len(self._journaled) - self.stats.ran

    def skip_settled(
        self,
        points: List[CampaignPoint],
        states: Dict[str, Dict],
        budget: int,
    ) -> List[CampaignPoint]:
        """Skip each of ``points`` that ``states`` (the store's
        ``result_states``) holds :func:`settled` under ``budget``,
        unless this reporter journaled it; returns the points still
        pending, in order.  Pass the pending points back next time: a
        point is skipped once."""
        pending = []
        journaled = self._journaled
        for point in points:
            stored = states.get(point.point_id)
            outcome = settled(stored, point.config_hash, budget)
            if outcome is None:
                pending.append(point)
            elif point.point_id not in journaled:
                self.skip(point, stored["attempts"]
                          if outcome == "failed" else 0)
        return pending

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
        result: Optional[dict],
        elapsed: float,
        attempt: int,
        final: bool = False,
        fence: Optional[Tuple[str, int]] = None,
        parent: object = None,
        extra_spans: Optional[List[dict]] = None,
        error: Optional[str] = None,
    ) -> str:
        """Journal one landed result; returns the outcome recorded.

        ``result`` is the point's report dict, or None when its
        simulation raised ``error`` (the exception's ``repr()``).
        ``final`` marks a failure that will not be retried: it settles
        into the done count (the ``done (N failed)`` state) so progress
        and ETA reach ``total`` instead of stalling just below it; any
        other failure counts as a retry.  Returns ``"ok"``,
        ``"failed"``, or ``"fenced"`` (fenced-out write, nothing
        journaled).

        With a tracer attached, ``parent`` (a span or context — a
        fabric worker passes the point's lease span) parents the
        synthesised ``run`` span, and ``extra_spans`` (span dicts)
        ride the same fenced transaction as the result row.
        """
        if error is not None:
            # Journal the failure immediately; a later successful
            # retry overwrites the row (INSERT OR REPLACE).
            spans, journal = self._trace_payload(
                point, elapsed, attempt, "error", error,
                parent, extra_spans,
            )
            wrote = self.store.record_failure(
                self.spec.name, point, error, elapsed,
                attempts=attempt, fence=fence, spans=spans,
            )
            self._close_journal(journal, wrote)
            if not wrote:
                return "fenced"
            if final:
                self._journaled.add(point.point_id)
                self.stats.failed += 1
                self.stats.failures.append(point.point_id)
            else:
                self.stats.retried += 1
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
        self._journaled.add(point.point_id)
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
# The local runner: one in-process fabric worker
# ----------------------------------------------------------------------

def run_campaign(
    spec: CampaignSpec,
    store: CampaignStore,
    progress: Optional[CampaignProgress] = None,
    verify: bool = False,
    heartbeat: Optional[float] = 1.0,
    serve: Optional[object] = None,
    trace: bool = False,
) -> CampaignRunStats:
    """Execute (or resume) a campaign; every outcome lands in ``store``.

    Returns run statistics; raises only on programmer error or
    interrupt.  A campaign the store holds settled is reported as
    skips, with no worker, lease or write.  Otherwise one in-process
    fabric :class:`~repro.campaign.fabric.Worker`, built with its
    defaults, leases the pending points a batch at a time, simulates
    and journals them one by one, and leases a failed point again
    until the spec's ``max_attempts`` are used up.

    ``verify=True`` arms the repro.verify invariant checker on every
    point (changing its config hash, so unverified rows re-run).
    ``serve`` runs a telemetry server for the campaign: a
    ``[HOST:]PORT`` spec / port / ``True`` (loopback, ephemeral port),
    or a started :class:`repro.obs.server.TelemetryServer` the caller
    owns.  ``trace=True`` journals the run's spans for ``cr-sim
    campaign timeline``.  Either wraps the worker in a
    :class:`~repro.campaign.fabric.Coordinator`, which owns the root
    span and publishes the heartbeat's metrics: before the worker
    starts, at most every ``heartbeat`` seconds (None: never) as points
    land, and at the end.  :func:`repro.campaign.fabric.run_fabric` shards a
    campaign across worker processes instead.
    """
    server, owns_server = open_telemetry(serve)
    publishing = heartbeat is not None and server is not None
    coordinator = None
    try:
        if trace or publishing:
            from .fabric import Coordinator

            coordinator = Coordinator(
                spec, store, verify=verify, trace=trace,
                server=server if publishing else None,
            )
            points = coordinator.points
            states = store.result_states(spec.name)
            pending = _pending(points, states, spec.max_attempts)
            if publishing:
                coordinator.poll()
        else:
            points, states, pending = _submit(spec, store, verify)
        if not pending:
            stats = CampaignRunStats(total=len(points))
            PointReporter(spec, store, stats, progress).skip_settled(
                points, states, spec.max_attempts)
            return stats

        report = progress
        if publishing:
            published = time.monotonic()

            def report(status: CampaignPointStatus) -> None:
                # Publish first, so a progress callback that scrapes
                # sees the point it was called for.
                nonlocal published
                if time.monotonic() - published >= heartbeat:
                    coordinator.poll()
                    published = time.monotonic()
                if progress is not None:
                    progress(status)

        from .fabric import Worker

        return Worker(spec.name, store.path, progress=report,
                      trace=trace).run(store)
    finally:
        if coordinator is not None:
            # One last poll: the final heartbeat, and the root span
            # closed with every straggler swept (an interrupt too).
            coordinator.run(timeout=0)
        if owns_server:
            server.stop()


def _project(report: object, metrics: tuple) -> dict:
    """Keep the spec's metrics (plus any counters they imply) from a report.

    Metrics missing from a report are dropped rather than fabricated —
    a stored row never contains values the simulation didn't produce.
    """
    assert isinstance(report, dict)
    return {key: report[key] for key in metrics if key in report}
