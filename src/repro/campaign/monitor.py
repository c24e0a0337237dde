"""Live campaign monitoring: an atomic ``status.json`` heartbeat.

While :func:`repro.campaign.run_campaign` executes, a
:class:`CampaignMonitor` periodically writes a small JSON heartbeat
next to the campaign database (``<spec-name>.status.json`` beside
``results/campaigns.sqlite``): points done/total, an ETA from the
rolling window of recent point wall-times, the grid coordinates of the
last settled point, and kill/retransmit rates published through a
:class:`repro.obs.metrics.MetricsRegistry`.

Writes are atomic (write temp + ``os.replace``), so a reader never
sees a torn file and a killed campaign leaves the last consistent
heartbeat behind; resuming the campaign picks the heartbeat back up
(skipped points count as done).  ``cr-sim campaign watch <name>``
renders the file as a refreshing terminal view — it only ever *reads*
``status.json`` and never touches the SQLite write paths.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..obs.metrics import WALL_TIME_BUCKETS, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .spec import CampaignPoint

#: unicode block ramp for terminal sparklines.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: how many recent point wall-times the ETA window and sparklines keep.
ROLLING_WINDOW = 32

#: heartbeat age (seconds) past which ``watch`` marks the view stale.
STALE_AFTER = 15.0


def status_path(store_path: str, name: str) -> Optional[str]:
    """Where the heartbeat for campaign ``name`` lives, given the DB path.

    Returns None for in-memory stores (``:memory:``): there is no
    directory to anchor the heartbeat to, so monitoring is off unless
    an explicit path is supplied.
    """
    if store_path == ":memory:":
        return None
    parent = os.path.dirname(str(store_path)) or "."
    return os.path.join(parent, f"{name}.status.json")


def write_status(path: str, status: Dict[str, Any]) -> None:
    """Atomically write ``status`` as JSON to ``path`` (temp + rename)."""
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(status, handle, indent=2, sort_keys=True)
    os.replace(tmp, path)


def read_status(path: str) -> Dict[str, Any]:
    """Read a heartbeat; raises FileNotFoundError if none exists yet."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def publish_heartbeat(
    status: Dict[str, Any],
    path: Optional[str],
    server: Optional[Any],
    registries: Sequence[MetricsRegistry],
    health: Dict[str, Any],
) -> None:
    """One heartbeat, everywhere it is read: the status file and, with
    a :class:`~repro.obs.server.TelemetryServer` attached, ``/status``,
    ``/metrics`` (the registries' Prometheus text, concatenated — valid
    exposition text does) and ``/health`` (progress from ``status``
    plus the runner's own ``health`` keys).  The local runner's monitor
    and the fabric coordinator both publish through here."""
    if path is not None:
        write_status(path, status)
    if server is not None:
        from .. import __version__

        state = status["state"]
        server.publish(
            metrics_text="".join(
                registry.prometheus_text() for registry in registries),
            health={
                "status": "ok" if state == "running" else state,
                "campaign": status["name"],
                "done": status["done"],
                "total": status["total"],
                **health,
                "version": __version__,
            },
            status=status,
        )


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
    """Accumulates campaign progress and writes the heartbeat file.

    ``interval`` throttles writes (seconds of wall time between
    heartbeats); the first and last updates always write.  The monitor
    publishes its counters into a :class:`MetricsRegistry` whose JSON
    snapshot is embedded in the heartbeat under ``"metrics"``.
    """

    def __init__(
        self,
        name: str,
        total: int,
        path: Optional[str],
        interval: float = 1.0,
        clock=time.monotonic,
        server: Optional[Any] = None,
    ) -> None:
        self.name = name
        self.total = total
        self.path = path
        self.interval = interval
        #: a repro.obs.server.TelemetryServer to republish every
        #: heartbeat to (run_campaign(serve=...) wires one); with a
        #: server attached, ``path=None`` is allowed -- heartbeats then
        #: go over HTTP only.
        self.server = server
        self._clock = clock
        self._started = clock()
        self._last_write: Optional[float] = None
        self.registry = MetricsRegistry(prefix="cr_campaign_")
        self._outcomes = {
            outcome: self.registry.counter(
                "points_total", "Campaign points settled, by outcome.",
                labels={"outcome": outcome},
            )
            for outcome in ("ok", "failed", "skipped")
        }
        self._wall_hist = self.registry.histogram(
            "point_wall_seconds", "Wall time per simulated point.",
            buckets=WALL_TIME_BUCKETS,
        )
        self._kills = self.registry.counter(
            "kills_total", "Kill wavefronts across simulated points.")
        self._retransmissions = self.registry.counter(
            "retransmissions_total",
            "Retransmission attempts across simulated points.")
        self._delivered = self.registry.counter(
            "messages_delivered_total",
            "Messages delivered across simulated points.")
        self._alerts = self.registry.counter(
            "alerts_total",
            "Alert episodes journaled across simulated points.")
        build_info_gauge(self.registry)
        self.done = 0
        self.failed_settled = 0  #: terminal failures counted into done
        self._recent_wall: deque = deque(maxlen=ROLLING_WINDOW)
        self._recent_kill_rate: deque = deque(maxlen=ROLLING_WINDOW)
        self._recent_alerts: deque = deque(maxlen=ROLLING_WINDOW)
        self._alert_rule_counts: Dict[str, int] = {}
        self._last_point: Optional[Dict[str, Any]] = None

    # -- updates (called from run_campaign's journal path) --------------

    def on_point(
        self,
        point: "CampaignPoint",
        outcome: str,
        elapsed: float,
        report: Optional[Dict[str, Any]] = None,
        final: bool = False,
    ) -> None:
        """Record one settled point and maybe write the heartbeat.

        Failed points that may still be retried don't advance ``done``;
        a failure marked ``final`` (retries exhausted) *settles*: it
        advances ``done`` and counts into the visible ``done (N
        failed)`` state, so progress and the ETA reach ``total``
        instead of sticking just below it forever.
        """
        if outcome in ("ok", "skipped"):
            self.done += 1
        elif outcome == "failed" and final:
            self.done += 1
            self.failed_settled += 1
        counter = self._outcomes.get(outcome)
        if counter is not None:
            counter.inc()
        if outcome == "ok":
            self._wall_hist.observe(elapsed)
            self._recent_wall.append(elapsed)
        if report is not None:
            self._kills.inc(float(report.get("kills", 0) or 0))
            self._retransmissions.inc(
                float(report.get("retransmissions", 0) or 0))
            self._delivered.inc(
                float(report.get("messages_delivered", 0) or 0))
            self._recent_kill_rate.append(
                float(report.get("kill_rate", 0.0) or 0.0))
            for episode in report.get("alerts") or []:
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
        now = self._clock()
        if (self._last_write is None
                or (now - self._last_write) >= self.interval
                or self.done >= self.total):
            self._write("running", now)

    def finalize(self) -> None:
        """Write the terminal heartbeat (state "finished")."""
        self._write("finished", self._clock())

    # -- heartbeat assembly ---------------------------------------------

    def eta_seconds(self) -> Optional[float]:
        """Remaining-time estimate from the rolling wall-time window."""
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        if not self._recent_wall:
            return None
        mean = sum(self._recent_wall) / len(self._recent_wall)
        return mean * remaining

    def snapshot(self, state: str = "running") -> Dict[str, Any]:
        delivered = self._delivered.value
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
            "rates": {
                "kills_per_delivered": (
                    self._kills.value / delivered if delivered else 0.0),
                "retransmissions_per_delivered": (
                    self._retransmissions.value / delivered
                    if delivered else 0.0),
            },
            "recent_wall_seconds": list(self._recent_wall),
            "recent_kill_rates": list(self._recent_kill_rate),
            "alerts": {
                "total": int(self._alerts.value),
                "by_rule": dict(self._alert_rule_counts),
                "recent": list(self._recent_alerts),
            },
            "metrics": self.registry.snapshot(),
        }

    def _write(self, state: str, now: float) -> None:
        status = self.snapshot(state)
        publish_heartbeat(
            status, self.path, self.server, [self.registry],
            health={"alerts": status["alerts"]["by_rule"]},
        )
        self._last_write = now


# ----------------------------------------------------------------------
# Rendering (pure functions over a heartbeat dict — no SQLite access)
# ----------------------------------------------------------------------

def text_sparkline(values: List[float], width: int = 32) -> str:
    """A unicode block sparkline of ``values`` (most recent last)."""
    cleaned = [float(v) for v in values if v is not None][-width:]
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


def render_alerts(status: Dict[str, Any], limit: int = 10) -> List[str]:
    """The heartbeat's recent alert episodes as terminal lines."""
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
    for episode in recent[-limit:]:
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
    """Seconds since the heartbeat was written, or None if unstamped."""
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
    right now) and its finished-span/log-record tallies.  Pure — reads
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
        logs = worker.get("logs") or 0
        if span or spans or logs:
            lines.append(
                f"       in span: {span or '(idle)'}"
                f"   spans {spans}  logs {logs}"
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
    rates = status.get("rates") or {}
    lines.append(
        f"  kills/delivered {rates.get('kills_per_delivered', 0.0):.4f}"
        f"   retx/delivered "
        f"{rates.get('retransmissions_per_delivered', 0.0):.4f}"
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

    # Heartbeat files written mid-campaign may hold null samples (a
    # point that produced no measurable rate yet); plot them as 0.0
    # rather than crashing the monitor on float(None).
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
