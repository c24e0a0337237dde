"""The merged campaign timeline: one Perfetto file for a fabric run.

Each fabric process — the coordinator and every worker, possibly on
different hosts — journals its trace spans into the shared campaign
store's ``spans`` table (:mod:`repro.obs.trace`).  This module merges
them back into a single Chrome Trace Event / Perfetto document on a
common wall-clock timebase:

* one *process* track per fabric process (coordinator first, workers
  in first-span order), named in the Perfetto sidebar;
* an ``X`` duration event per span (lease, run, journal, renew, ...),
  with trace/span ids, status, and attrs in ``args`` — an ``aborted``
  lease span is a worker death made visible;
* counter tracks from each point's journaled interval timeseries,
  mapped linearly from simulated cycles onto the point's ``run``
  span's wall-clock interval;
* instant events for journaled alert episodes, mapped the same way;
* a fabric-wide ``points_done`` counter stepped at each successful
  run span's end.

``cr-sim campaign timeline <name> --perfetto`` writes the file; load
it at https://ui.perfetto.dev or ``chrome://tracing``.  The same spans,
one line each and filtered, are the campaign's log (``cr-sim campaign
logs <name>``): :func:`filter_spans` and :func:`format_span`.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .store import CampaignStore

#: the coordinator's process id in the merged document; workers follow.
COORDINATOR_PID = 1

#: worker ids rendered as the coordinator's track rather than their own.
_COORDINATOR_IDS = ("coordinator", "")

#: counter metrics per point kept out of the timeline (non-numeric or
#: bookkeeping sample fields).
_SAMPLE_META_KEYS = ("index", "start", "end")


def default_timeline_path(store_path: str,
                          campaign: str) -> Optional[str]:
    """Where the merged timeline lands, next to the campaign DB.

    None for in-memory stores (no directory to anchor to) — pass an
    explicit path instead.
    """
    if store_path == ":memory:":
        return None
    parent = os.path.dirname(str(store_path)) or "."
    return os.path.join(parent, f"{campaign}.timeline.perfetto.json")


def _process_ids(spans: List[Dict[str, Any]]) -> Dict[str, int]:
    """worker_id -> Perfetto pid: coordinator 1, workers by first span."""
    pids: Dict[str, int] = {}
    next_pid = COORDINATOR_PID + 1
    for span in sorted(spans, key=lambda s: (s["start_ts"],
                                             s["span_id"])):
        worker = span["worker_id"]
        if worker in pids:
            continue
        if worker in _COORDINATOR_IDS:
            pids[worker] = COORDINATOR_PID
        else:
            pids[worker] = next_pid
            next_pid += 1
    return pids


def _run_intervals(
    spans: List[Dict[str, Any]],
) -> Dict[str, Tuple[float, float, int]]:
    """point_id -> (start, end, pid-owning worker) of its landed run span.

    The *last* ``ok`` run span wins (a retried point maps onto the
    attempt whose result is actually stored).
    """
    pids = _process_ids(spans)
    out: Dict[str, Tuple[float, float, int]] = {}
    for span in spans:
        if span["kind"] != "run" or span["status"] != "ok":
            continue
        point = span["point_id"]
        end = span["end_ts"]
        if point is None or end is None:
            continue
        if point in out and out[point][1] >= end:
            continue
        out[point] = (span["start_ts"], end,
                      pids.get(span["worker_id"], COORDINATOR_PID))
    return out


def timeline_events(store: CampaignStore,
                    campaign: str) -> List[Dict[str, Any]]:
    """The merged Trace Event entries for one campaign's fabric run."""
    spans = store.spans(campaign)
    if not spans:
        return []
    t0 = min(span["start_ts"] for span in spans)
    horizon = max(
        [span["start_ts"] for span in spans]
        + [span["end_ts"] for span in spans
           if span["end_ts"] is not None]
    )

    def us(ts: float) -> int:
        return int(round((ts - t0) * 1e6))

    pids = _process_ids(spans)
    out: List[Dict[str, Any]] = []

    # Sidebar names: the coordinator first, then each worker process.
    named = {}
    for worker, pid in pids.items():
        label = "coordinator" if pid == COORDINATOR_PID else worker
        if pid not in named:
            named[pid] = label
    for pid, label in sorted(named.items()):
        out.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": label},
        })

    # One X event per span.  Open spans (a live run being watched, or
    # a store that somehow escaped the settle sweep) are drawn to the
    # horizon so the document always loads.
    for span in spans:
        end = span["end_ts"] if span["end_ts"] is not None else horizon
        args = {
            "trace_id": span["trace_id"],
            "span_id": span["span_id"],
            "parent_id": span["parent_id"],
            "status": span["status"],
            "worker_id": span["worker_id"],
        }
        if span["point_id"] is not None:
            args["point_id"] = span["point_id"]
        args.update(span["attrs"])
        out.append({
            "name": span["name"],
            "cat": span["kind"],
            "ph": "X",
            "pid": pids.get(span["worker_id"], COORDINATOR_PID),
            "tid": 1,
            "ts": us(span["start_ts"]),
            "dur": max(us(end) - us(span["start_ts"]), 1),
            "args": args,
        })

    # Counter tracks: each point's interval samples, cycles mapped
    # linearly onto its run span's wall-clock interval.
    runs = _run_intervals(spans)
    series = store.timeseries(campaign)
    for point_id, samples in series.items():
        interval = runs.get(point_id)
        if interval is None or not samples:
            continue
        start, end, pid = interval
        final_cycle = max(1, samples[-1].get("end", 1))
        span_wall = end - start
        for sample in samples:
            wall = start + (sample.get("end", 0) / final_cycle) * span_wall
            for key, value in sample.items():
                if key in _SAMPLE_META_KEYS:
                    continue
                if not isinstance(value, (int, float)):
                    continue
                out.append({
                    "name": f"point {key}",
                    "ph": "C",
                    "pid": pid,
                    "ts": us(wall),
                    "args": {key: value},
                })

    # Alert instants, overlaid on the owning worker's track.
    for point_id, episodes in store.alerts(campaign).items():
        interval = runs.get(point_id)
        if interval is None:
            continue
        start, end, pid = interval
        samples = series.get(point_id) or []
        final_cycle = max(1, samples[-1].get("end", 1)) if samples else None
        for episode in episodes:
            if final_cycle:
                wall = start + (
                    episode["fired_at"] / final_cycle) * (end - start)
            else:
                wall = end
            out.append({
                "name": f"alert {episode['rule']}",
                "ph": "i",
                "s": "g",
                "pid": pid,
                "tid": 1,
                "ts": us(min(wall, end)),
                "args": {
                    "severity": episode["severity"],
                    "state": episode["state"],
                    "point_id": point_id,
                    "message": episode["message"],
                },
            })

    # Campaign progress: a fabric-wide points_done counter stepped at
    # each successful run span's end, on the coordinator's track.
    done = 0
    for _, (_, end, _) in sorted(runs.items(), key=lambda kv: kv[1][1]):
        done += 1
        out.append({
            "name": "points_done",
            "ph": "C",
            "pid": COORDINATOR_PID,
            "ts": us(end),
            "args": {"done": done},
        })
    return out


def campaign_timeline(store: CampaignStore,
                      campaign: str) -> Dict[str, Any]:
    """The full merged Perfetto document for one campaign."""
    return {
        "traceEvents": timeline_events(store, campaign),
        "displayTimeUnit": "ms",
        "otherData": {
            "campaign": campaign,
            "time_unit": "1 trace us = 1 wall-clock microsecond",
        },
    }


def write_campaign_timeline(store: CampaignStore, campaign: str,
                            path: Optional[str] = None) -> str:
    """Write the merged timeline; returns the path written.

    Raises ``LookupError`` when the campaign has no journaled spans
    (run it with tracing armed: ``--trace``) and ``ValueError`` when
    no path is given for an in-memory store.
    """
    if not store.spans(campaign):
        raise LookupError(
            f"campaign {campaign!r} has no journaled spans; run it "
            f"with tracing armed (cr-sim campaign run --trace)"
        )
    target = path or default_timeline_path(store.path, campaign)
    if target is None:
        raise ValueError("in-memory store: pass an explicit path")
    document = campaign_timeline(store, campaign)
    parent = os.path.dirname(str(target))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return target


def timeline_summary(store: CampaignStore,
                     campaign: str) -> Dict[str, Any]:
    """Span bookkeeping for the CLI: counts by kind/status, traces,
    workers, and how many spans are still open (0 after settle)."""
    spans = store.spans(campaign)
    by_kind: Dict[str, int] = {}
    by_status: Dict[str, int] = {}
    workers = set()
    traces = set()
    for span in spans:
        by_kind[span["kind"]] = by_kind.get(span["kind"], 0) + 1
        by_status[span["status"]] = by_status.get(span["status"], 0) + 1
        workers.add(span["worker_id"])
        traces.add(span["trace_id"])
    return {
        "campaign": campaign,
        "spans": len(spans),
        "open": by_status.get("open", 0),
        "by_kind": by_kind,
        "by_status": by_status,
        "workers": sorted(workers),
        "traces": sorted(traces),
    }


# ----------------------------------------------------------------------
# The spans as log lines (``cr-sim campaign logs``)
# ----------------------------------------------------------------------

#: span log levels, least to most severe.
LOG_LEVELS = ("debug", "info", "warning", "error")


def span_level(span: Dict[str, Any]) -> str:
    """A span's log level: ``error`` spans are errors, ``aborted`` ones
    (a worker death, a released lease) warnings, lease renewals debug,
    everything else info."""
    if span["status"] == "error":
        return "error"
    if span["status"] == "aborted":
        return "warning"
    return "debug" if span["kind"] == "renew" else "info"


def filter_spans(
    spans: Iterable[Dict[str, Any]],
    worker: Optional[str] = None,
    level: str = "info",
    trace: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """The spans matching every filter, in their given order.

    ``level`` is a minimum severity (``warning`` keeps warnings and
    errors); ``trace`` matches ``trace_id`` exactly or, from 4
    characters on, as a hex prefix.
    """
    floor = LOG_LEVELS.index(level)
    out = []
    for span in spans:
        if worker is not None and span["worker_id"] != worker:
            continue
        if LOG_LEVELS.index(span_level(span)) < floor:
            continue
        if trace is not None and not (
                span["trace_id"].startswith(trace) if len(trace) >= 4
                else span["trace_id"] == trace):
            continue
        out.append(span)
    return out


def format_span(span: Dict[str, Any]) -> str:
    """One span as a log line: start time, level, worker, kind/name,
    status, duration, attrs and the span id."""
    ts = span["start_ts"]
    stamp = (time.strftime("%H:%M:%S", time.localtime(ts))
             + f".{int((ts % 1) * 1000):03d}")
    end = span["end_ts"]
    duration = "-" if end is None else f"{end - ts:.3f}s"
    attrs = "".join(f" {key}={value}"
                    for key, value in span["attrs"].items())
    return (f"{stamp} {span_level(span).upper():7s} "
            f"{span['worker_id'] or '-':14s} "
            f"{span['kind']}/{span['name']} {span['status']} {duration}"
            f"{attrs} [span {span['span_id'][:8]}]")
