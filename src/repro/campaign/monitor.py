"""Live campaign monitoring: the heartbeat, read from the store.

:class:`CampaignView` is the one source of a campaign's heartbeat: it
reads what the store holds -- the points settled by the one rule,
their journaled rows and alert episodes, the fabric's worker beats --
and folds the rows settled since its last read through a
:class:`CampaignMonitor`.  The local runner, the fabric coordinator
and ``cr-sim campaign watch`` each hold a view, so one store gives one
heartbeat whoever reads it.  It holds points done/total, an ETA
(remaining ÷ the settle rate), the last point, sparklines of wall time
and stored ``kill_rate``, the alert episodes, and feeds a
``cr_campaign_`` metrics registry.

The store is the campaign's only record: the heartbeat is shown by
``watch`` and, with a telemetry server attached, on ``/status``; the
registries are shown on ``/metrics``.  Nothing is written beside the
store.  The render functions at the bottom are pure over a heartbeat
dict.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence,
                    Tuple)

from ..obs.metrics import WALL_TIME_BUCKETS, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .spec import CampaignPoint, CampaignSpec
    from .store import CampaignStore

#: unicode block ramp for terminal sparklines.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: how many settle-rate samples the ETA keeps, and points the sparklines.
ROLLING_WINDOW = 32

#: heartbeat age (seconds) past which ``watch`` marks the view stale.
STALE_AFTER = 15.0

#: default lease time-to-live (seconds); a worker renews at ttl/3, so
#: one missed beat survives and a dead worker is reclaimable within ttl.
DEFAULT_TTL = 15.0


def write_status(path: str, status: Dict[str, Any]) -> None:
    """Atomically write ``status`` as JSON to ``path`` (temp + rename).

    No executor calls this: the store is the campaign's only record.
    It is kept for the benchmark harness, which times it
    (``monitor.write_status_us``)."""
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(status, handle, indent=2, sort_keys=True)
    os.replace(tmp, path)


def build_info_gauge(registry: MetricsRegistry) -> None:
    """Stamp ``registry`` with the constant-1 ``build_info`` gauge."""
    from .. import __version__
    from .store import STORE_SCHEMA_VERSION

    registry.gauge(
        "build_info",
        "Constant 1; the labels attribute scrapes to a repro "
        "version and campaign store schema.",
        labels={"version": __version__,
                "schema": str(STORE_SCHEMA_VERSION)},
    ).set(1)


class CampaignMonitor:
    """Folds settled points into the campaign heartbeat and publishes it.

    Fed by a :class:`CampaignView`, which folds each point once, when
    the store first holds it settled.  The monitor publishes its
    counters into a :class:`MetricsRegistry`, which ``/metrics``
    shows.
    """

    def __init__(
        self,
        name: str,
        total: int,
        server: Optional[Any],
        clock=time.monotonic,
    ) -> None:
        self.name = name
        self.total = total
        #: a repro.obs.server.TelemetryServer to republish every
        #: heartbeat to (the executor attaches it); None: nowhere.
        self.server = server
        self._clock = clock
        self._started = clock()
        self.registry = MetricsRegistry(prefix="cr_campaign_")
        self._outcomes = {
            outcome: self.registry.counter(
                "points_total", "Campaign points settled, by outcome.",
                labels={"outcome": outcome},
            )
            for outcome in ("ok", "failed")
        }
        self._wall_hist = self.registry.histogram(
            "point_wall_seconds", "Wall time per simulated point.",
            buckets=WALL_TIME_BUCKETS,
        )
        self._alerts = self.registry.counter(
            "alerts_total",
            "Alert episodes journaled across simulated points.")
        build_info_gauge(self.registry)
        self.done = 0
        self.failed_settled = 0  #: terminal failures counted into done
        #: (clock, done) samples the ETA's settle rate is read from
        self._settles: deque = deque(maxlen=ROLLING_WINDOW)
        self._recent_wall: deque = deque(maxlen=ROLLING_WINDOW)
        self._recent_kill_rate: deque = deque(maxlen=ROLLING_WINDOW)
        self._recent_alerts: deque = deque(maxlen=ROLLING_WINDOW)
        self._alert_rule_counts: Dict[str, int] = {}
        self._last_point: Optional[Dict[str, Any]] = None

    # -- updates ----------------------------------------------------------

    def fold(
        self,
        point: "CampaignPoint",
        outcome: str,
        elapsed: float,
        row: Optional[Dict[str, Any]] = None,
        alerts: Sequence[Dict[str, Any]] = (),
    ) -> None:
        """Tally one settled point from what the journal holds:
        ``outcome`` is ``"ok"`` or a terminal ``"failed"``, ``row`` the
        stored metric row, ``alerts`` its episodes.  Either settles
        into ``done`` (a failure shows as ``done (N failed)``), so
        progress and the ETA reach ``total``."""
        self.done += 1
        if outcome == "failed":
            self.failed_settled += 1
        self._outcomes[outcome].inc()
        if outcome == "ok":
            self._wall_hist.observe(elapsed)
            self._recent_wall.append(elapsed)
            if row is not None and "kill_rate" in row:
                self._recent_kill_rate.append(row["kill_rate"])
        for episode in alerts:
            self._alerts.inc()
            rule = episode.get("rule", "?")
            self._alert_rule_counts[rule] = (
                self._alert_rule_counts.get(rule, 0) + 1)
            self.registry.counter(
                "alerts_by_rule_total",
                "Alert episodes journaled, by rule and severity.",
                labels={"rule": rule,
                        "severity": episode.get("severity", "?")},
            ).inc()
            self._recent_alerts.append(
                dict(episode, point_id=point.point_id))
        self._last_point = {
            "point_id": point.point_id,
            "grid": point.grid,
            "scenario": dict(point.scenario),
            "replication": point.replication,
            "outcome": outcome,
            "elapsed": elapsed,
        }

    def mark(self, now: Optional[float] = None) -> None:
        """Sample ``done`` for the settle rate."""
        self._settles.append((self._clock() if now is None else now,
                              self.done))

    def on_point(
        self,
        point: "CampaignPoint",
        outcome: str,
        elapsed: float,
        row: Optional[Dict[str, Any]] = None,
    ) -> None:
        """:meth:`fold` one point settled now and sample the settle
        rate."""
        self.fold(point, outcome, elapsed, row)
        self.mark()

    # -- heartbeat assembly ---------------------------------------------

    def eta_seconds(self) -> Optional[float]:
        """Remaining points ÷ the settle rate over the sample window."""
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        if len(self._settles) < 2:
            return None
        (t0, d0), (t1, d1) = self._settles[0], self._settles[-1]
        if d1 <= d0 or t1 <= t0:
            return None
        return remaining * (t1 - t0) / (d1 - d0)

    def snapshot(self, state: str = "running") -> Dict[str, Any]:
        return {
            "name": self.name,
            "state": state,
            "updated_at": time.time(),
            "elapsed_seconds": self._clock() - self._started,
            "done": self.done,
            "failed": self.failed_settled,
            "total": self.total,
            "eta_seconds": self.eta_seconds(),
            "last_point": self._last_point,
            "recent_wall_seconds": list(self._recent_wall),
            "recent_kill_rates": list(self._recent_kill_rate),
            "alerts": {
                "total": int(self._alerts.value),
                "by_rule": dict(self._alert_rule_counts),
                "recent": list(self._recent_alerts),
            },
        }

    def publish(
        self,
        status: Dict[str, Any],
        registries: Sequence[MetricsRegistry] = (),
    ) -> Dict[str, Any]:
        """Push a heartbeat built on :meth:`snapshot` (a fabric run's
        adds its ``workers`` and ``fabric`` blocks) to the attached
        server, if any: ``/status``, ``/metrics`` (this monitor's and
        the ``registries``' Prometheus text, concatenated) and
        ``/health`` (progress, alert counts, live workers).  Returns
        the heartbeat."""
        if self.server is None:
            return status
        from .. import __version__

        state = status["state"]
        fabric = status.get("fabric")
        self.server.publish(
            metrics_text="".join(
                registry.prometheus_text()
                for registry in (self.registry, *registries)),
            health={
                "status": "ok" if state == "running" else state,
                "campaign": self.name,
                "done": self.done,
                "total": self.total,
                "alerts": status["alerts"]["by_rule"],
                **({} if fabric is None else
                   {"workers_live": fabric["live_workers"]}),
                "version": __version__,
            },
            status=status,
        )
        return status


class CampaignView:
    """A campaign's heartbeat as its store holds it.

    Each :meth:`read` folds the rows settled since the last read —
    settled by the one rule, :func:`~repro.campaign.store.settled` with
    the spec's ``max_attempts`` — into a :class:`CampaignMonitor`,
    sampling the settle rate at the journal's own timestamps, and
    returns the per-worker liveness pane and the ``fabric`` block.  It
    only reads, so the local runner, the fabric
    :class:`~repro.campaign.fabric.Coordinator` and ``cr-sim campaign
    watch`` (over a read-only connection, see :meth:`open`) build the
    same view; the executors :meth:`publish` it.
    """

    #: carry the workers pane before any worker has joined
    fabric = False

    def __init__(
        self,
        spec: "CampaignSpec",
        points: Sequence["CampaignPoint"],
        store: "CampaignStore",
        ttl: float = DEFAULT_TTL,
        started: Optional[float] = None,
    ) -> None:
        self.spec = spec
        self.store = store
        self.ttl = float(ttl)
        self.total = len(points)
        self.expected = {point.point_id: point.config_hash
                         for point in points}
        #: the points no read has folded into the heartbeat yet
        self._unfolded = {point.point_id: point for point in points}
        self._failures: List[str] = []
        self.monitor = CampaignMonitor(spec.name, self.total, None,
                                       clock=time.time)
        #: wall time the campaign (re)started; the newest journal row
        self.started = time.time() if started is None else started
        self._last_row = self.started

    @classmethod
    def open(cls, store: "CampaignStore",
             name: str) -> Optional["CampaignView"]:
        """The view of a registered campaign, or None if ``store``
        holds no campaign ``name``."""
        spec = store.spec(name)
        if spec is None:
            return None
        return cls(spec, list(spec.points()), store,
                   started=store.updated_at(name))

    def read(self, now: Optional[float] = None
             ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        """Fold what settled since the last read; the workers pane and
        the ``fabric`` block as of ``now``."""
        if now is None:
            now = time.time()
        outcomes = self.store.settlement(self.spec.name, self.expected,
                                         self.spec.max_attempts)
        self._failures = [point_id for point_id, outcome
                          in outcomes.items() if outcome == "failed"]
        fresh = [point_id for point_id in outcomes
                 if point_id in self._unfolded]
        for row in self.store.journal_rows(self.spec.name, fresh):
            point = self._unfolded.pop(row["point_id"])
            self.monitor.fold(point, outcomes[point.point_id],
                              row["wall_time"], row["report"],
                              row["alerts"])
            # A row an earlier run journaled is a resumed skip: no
            # settle-rate sample.
            if row["created_at"] >= self.started:
                self.monitor.mark(row["created_at"])
            self._last_row = max(self._last_row, row["created_at"])

        leases = self.store.leases(self.spec.name, now=now)
        held = sum(1 for lease in leases if lease["live"])
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
                "span": row.get("span", ""),
                "spans": row.get("spans", 0),
            })
        return workers, {
            "live_workers": live_workers,
            "workers_seen": len(workers),
            "leases_held": held,
            "leases_expired": len(leases) - held,
            "reclaims": int(reclaims),
        }

    def heartbeat(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The campaign's heartbeat, as ``cr-sim campaign watch``
        renders it and the executors publish it: the
        monitor's snapshot, stamped with the store's last activity (a
        journaled row or a worker beat) and, for a fabric run, the
        workers pane and the ``fabric`` block."""
        if now is None:
            now = time.time()
        workers, fabric = self.read(now)
        finished = self.monitor.done >= self.total
        active = max([self._last_row] + [
            now - worker["last_seen_age"] for worker in workers])
        status = self.monitor.snapshot(
            "finished" if finished else "running")
        status.update(
            updated_at=active,
            elapsed_seconds=max(
                0.0, (active if finished else now) - self.started),
        )
        if workers or self.fabric:
            status.update(kind="fabric", workers=workers, fabric=fabric)
        return status

    def publish(self, registries: Sequence[MetricsRegistry] = ()
                ) -> Dict[str, Any]:
        """Read the :meth:`heartbeat` and :meth:`CampaignMonitor.publish`
        it, with the ``registries``' metrics; returns it."""
        return self.monitor.publish(self.heartbeat(), registries)


# ----------------------------------------------------------------------
# Rendering (pure functions over a heartbeat dict — no SQLite access)
# ----------------------------------------------------------------------

def text_sparkline(values: List[float]) -> str:
    """A unicode block sparkline of the last 32 ``values`` (most recent
    last)."""
    cleaned = [float(v) for v in values if v is not None][-32:]
    if not cleaned:
        return ""
    lo, hi = min(cleaned), max(cleaned)
    span = hi - lo
    ramp = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[int(round(((v - lo) / span if span else 0.5) * ramp))]
        for v in cleaned
    )


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    seconds = max(0.0, float(seconds))
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def render_alerts(status: Dict[str, Any]) -> List[str]:
    """The heartbeat's last ten alert episodes as terminal lines."""
    alerts = status.get("alerts") or {}
    recent = alerts.get("recent") or []
    total = int(alerts.get("total", len(recent)) or 0)
    if not total:
        return ["  alerts: none"]
    by_rule = alerts.get("by_rule") or {}
    summary = "  ".join(
        f"{rule}x{count}" for rule, count in sorted(by_rule.items())
    )
    lines = [f"  alerts: {total} episode(s)" + (f"  {summary}"
                                                if summary else "")]
    for episode in recent[-10:]:
        marker = "!" if episode.get("state") == "firing" else " "
        lines.append(
            f"   {marker} [{episode.get('severity', '?'):8s}] "
            f"{episode.get('rule', '?')} @{episode.get('fired_at', '?')}"
            f" ({episode.get('point_id', '?')}) "
            f"{episode.get('message', '')}"
        )
    return lines


def heartbeat_age(status: Dict[str, Any],
                  now: Optional[float] = None) -> Optional[float]:
    """Seconds since the store last showed activity (the heartbeat's
    ``updated_at``), or None if unstamped."""
    written = status.get("updated_at")
    if written is None:
        return None
    return max(0.0, (time.time() if now is None else now) - written)


def render_status(status: Dict[str, Any], width: int = 72,
                  alerts_only: bool = False,
                  now: Optional[float] = None,
                  stale_after: float = STALE_AFTER) -> str:
    """The heartbeat as a terminal block (pure; reads only the dict).

    A running campaign whose heartbeat is older than ``stale_after``
    (seconds; default :data:`STALE_AFTER`, overridable via ``cr-sim
    campaign watch --stale-after``) renders a STALE banner first --
    and the alert lines still render after it, clearly marked as
    last-known, instead of silently presenting the old snapshot as
    live.  The banner triggers strictly *past* the threshold: an age
    of exactly ``stale_after`` is still considered fresh.
    ``alerts_only`` drops the progress block (the ``watch --alerts``
    filter).
    """
    lines = []
    age = heartbeat_age(status, now=now)
    stale = (age is not None and age > stale_after
             and status.get("state") == "running")
    if stale:
        lines.append(
            f"!! STALE heartbeat: last written {_fmt_duration(age)} "
            f"ago (runner gone?); showing last-known state"
        )
    if alerts_only:
        lines.append(
            f"campaign {status.get('name', '?')}"
            f" [{status.get('state', '?')}] — alerts"
        )
        lines.extend(render_alerts(status))
        return "\n".join(lines)
    lines.extend(_render_progress(status, width))
    if status.get("workers"):
        lines.extend(render_workers(status))
    lines.extend(render_alerts(status))
    return "\n".join(lines)


def render_workers(status: Dict[str, Any]) -> List[str]:
    """The fabric coordinator's per-worker liveness pane.

    One line per worker heartbeat the coordinator aggregated: liveness
    (``live``/``stale``/``dead``/``finished``), points done (failed),
    leases currently held, and reclaims performed.  Traced fabrics add
    a second line per worker with its *current* span (what it is doing
    right now) and its finished-span tally.  Pure — reads
    only the heartbeat dict ``cr-sim campaign watch`` already consumes.
    """
    workers = status.get("workers") or []
    fabric = status.get("fabric") or {}
    head = f"  workers: {len(workers)}"
    live = fabric.get("live_workers")
    if live is not None:
        head += f" ({live} live)"
    reclaims = fabric.get("reclaims")
    if reclaims:
        head += f"   lease reclaims: {reclaims}"
    lines = [head]
    marks = {"live": "+", "finished": "=", "stale": "?", "dead": "!"}
    for worker in workers:
        state = worker.get("state", "?")
        age = worker.get("last_seen_age")
        lines.append(
            f"   {marks.get(state, ' ')} {worker.get('worker_id', '?'):16s}"
            f" [{state:8s}] done {worker.get('done', 0)}"
            f" ({worker.get('failed', 0)} failed)"
            f"  leases {worker.get('leases', 0)}"
            f"  reclaims {worker.get('reclaims', 0)}"
            + (f"  seen {_fmt_duration(age)} ago" if age is not None
               else "")
        )
        span = worker.get("span")
        spans = worker.get("spans") or 0
        if span or spans:
            lines.append(
                f"       in span: {span or '(idle)'}   spans {spans}"
            )
    return lines


def _render_progress(status: Dict[str, Any],
                     width: int = 72) -> List[str]:
    done = int(status.get("done", 0))
    total = int(status.get("total", 0)) or 1
    frac = min(1.0, done / total)
    bar_width = max(10, width - 30)
    filled = int(round(frac * bar_width))
    bar = "#" * filled + "-" * (bar_width - filled)
    failed = int(status.get("failed", 0) or 0)
    failed_note = f" ({failed} failed)" if failed else ""
    lines = [
        f"campaign {status.get('name', '?')} [{status.get('state', '?')}]",
        f"  [{bar}] {done}/{total} ({100 * frac:.0f}%){failed_note}",
        f"  elapsed {_fmt_duration(status.get('elapsed_seconds'))}"
        f"   eta {_fmt_duration(status.get('eta_seconds'))}",
    ]
    last = status.get("last_point")
    if last:
        coords = ",".join(
            f"{key}={value}" for key, value in sorted(
                (last.get("scenario") or {}).items())
        )
        lines.append(
            f"  last point: {last.get('point_id', '?')}"
            f" [{last.get('outcome', '?')}"
            f" {last.get('elapsed', 0.0):.2f}s]"
            + (f" {coords}" if coords else "")
        )
    walls = status.get("recent_wall_seconds") or []
    kills = status.get("recent_kill_rates") or []
    if walls:
        lines.append(
            f"  point wall s  {text_sparkline(walls)}"
            f"  (last {0.0 if walls[-1] is None else walls[-1]:.2f}s)"
        )
    if kills:
        lines.append(
            f"  kill rate     {text_sparkline(kills)}"
            f"  (last {0.0 if kills[-1] is None else kills[-1]:.3f})"
        )
    return lines


def status_svg(status: Dict[str, Any]) -> str:
    """The heartbeat's rolling series as SVG sparklines."""
    from ..stats.svg import render_sparkline_rows

    # A heartbeat may hold null samples (a point that produced no
    # measurable rate); plot them as 0.0 rather than crashing the
    # monitor on float(None).
    rows = [
        ("point wall s",
         [0.0 if v is None else float(v)
          for v in status.get("recent_wall_seconds") or []]),
        ("kill rate",
         [0.0 if v is None else float(v)
          for v in status.get("recent_kill_rates") or []]),
    ]
    name = status.get("name", "campaign")
    return render_sparkline_rows(rows, title=f"{name} — live heartbeat")
