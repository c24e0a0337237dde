"""SQLite-backed campaign results store with full provenance.

Every completed point is recorded the moment it lands (one transaction
per point, so a crash loses at most the in-flight simulations) together
with everything needed to trust it later: the
:func:`~repro.sim.parallel.config_cache_key` hash of the exact
:class:`~repro.sim.config.SimConfig` that ran, ``repro.__version__``,
the store schema version, wall time and a timestamp.  Failures are
recorded too (status ``failed`` with the error text), so a campaign
report can show holes instead of silently dropping scenarios.

Resume semantics live in :func:`settled`: a point is *done* only if
its stored status is ``ok`` **and** its stored config hash matches the
hash of the config the current spec would run — edit the spec (or
upgrade the simulator version embedded in the hash entry) and the
stale points re-run instead of being trusted.

Since schema v4 the store is also the coordination surface for the
distributed campaign fabric (:mod:`repro.campaign.fabric`): the file
opens in WAL mode with a generous ``busy_timeout`` so many worker
processes (or hosts sharing the path) can write concurrently, and two
extra tables carry the fabric state — ``leases`` (which worker owns
which in-flight point, until when, at which attempt) and ``workers``
(per-worker heartbeats the coordinator aggregates).  Lease mutations
run under ``BEGIN IMMEDIATE`` so acquisition is atomic across
processes, and result writes accept an optional *fence*: a
``(worker_id, attempt)`` pair that must still own the point's lease
for the row to land, so a worker that lost its lease to a reclaim can
never double-journal over the new owner.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from .spec import CampaignPoint, CampaignSpec

#: bump when the results table layout changes incompatibly.
#: v2: added the timeseries table (interval-sampler metrics per point).
#: v3: added the alerts table (alert episodes journaled per point).
#: v4: added the leases + workers tables (distributed campaign fabric).
#: v5: added the spans table (distributed tracing) and the workers
#:     span/spans/logs columns (current-span + trace/log tallies).
STORE_SCHEMA_VERSION = 5

#: how long (ms) a writer waits on a locked database before failing;
#: sized for many worker processes journaling into one WAL file.
BUSY_TIMEOUT_MS = 30_000

#: default database location, next to the exported figure CSVs.
DEFAULT_DB_PATH = os.path.join("results", "campaigns.sqlite")

_TABLES = """
CREATE TABLE IF NOT EXISTS campaigns (
    name        TEXT PRIMARY KEY,
    description TEXT NOT NULL DEFAULT '',
    spec        TEXT NOT NULL,
    created_at  REAL NOT NULL,
    updated_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    campaign       TEXT NOT NULL,
    point_id       TEXT NOT NULL,
    status         TEXT NOT NULL,      -- 'ok' | 'failed'
    grid           TEXT NOT NULL DEFAULT '',
    scenario       TEXT NOT NULL,      -- JSON axis values
    replication    INTEGER NOT NULL,
    seed           INTEGER NOT NULL,
    config_hash    TEXT,               -- NULL for uncacheable configs
    repro_version  TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    report         TEXT,               -- JSON metrics (status 'ok')
    error          TEXT,               -- repr of the failure ('failed')
    attempts       INTEGER NOT NULL DEFAULT 1,
    wall_time      REAL NOT NULL DEFAULT 0.0,
    created_at     REAL NOT NULL,
    PRIMARY KEY (campaign, point_id)
);
CREATE TABLE IF NOT EXISTS timeseries (
    campaign       TEXT NOT NULL,
    point_id       TEXT NOT NULL,
    seq            INTEGER NOT NULL,   -- sample index within the run
    cycle_start    INTEGER NOT NULL,
    cycle_end      INTEGER NOT NULL,
    metrics        TEXT NOT NULL,      -- JSON interval metrics
    schema_version INTEGER NOT NULL,
    PRIMARY KEY (campaign, point_id, seq)
);
CREATE TABLE IF NOT EXISTS alerts (
    campaign       TEXT NOT NULL,
    point_id       TEXT NOT NULL,
    seq            INTEGER NOT NULL,   -- episode index within the run
    rule           TEXT NOT NULL,
    severity       TEXT NOT NULL,      -- 'info' | 'warning' | 'critical'
    state          TEXT NOT NULL,      -- 'firing' | 'resolved'
    fired_at       INTEGER NOT NULL,   -- cycle the episode fired
    resolved_at    INTEGER,            -- NULL while still firing
    value          REAL,               -- metric value at the firing
    message        TEXT NOT NULL,
    schema_version INTEGER NOT NULL,
    PRIMARY KEY (campaign, point_id, seq)
);
CREATE TABLE IF NOT EXISTS leases (
    campaign     TEXT NOT NULL,
    point_id     TEXT NOT NULL,
    worker_id    TEXT NOT NULL,
    lease_expiry REAL NOT NULL,        -- wall-clock deadline (time.time)
    attempt      INTEGER NOT NULL,     -- monotonic per point, fences writes
    PRIMARY KEY (campaign, point_id)
);
CREATE TABLE IF NOT EXISTS workers (
    campaign   TEXT NOT NULL,
    worker_id  TEXT NOT NULL,
    pid        INTEGER,
    host       TEXT NOT NULL DEFAULT '',
    state      TEXT NOT NULL DEFAULT 'running',
    started_at REAL NOT NULL,
    last_seen  REAL NOT NULL,
    done       INTEGER NOT NULL DEFAULT 0,
    failed     INTEGER NOT NULL DEFAULT 0,
    leases     INTEGER NOT NULL DEFAULT 0,
    reclaims   INTEGER NOT NULL DEFAULT 0,
    span       TEXT NOT NULL DEFAULT '',
    spans      INTEGER NOT NULL DEFAULT 0,
    logs       INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (campaign, worker_id)
);
CREATE TABLE IF NOT EXISTS spans (
    campaign       TEXT NOT NULL,
    span_id        TEXT NOT NULL,
    trace_id       TEXT NOT NULL,
    parent_id      TEXT,
    name           TEXT NOT NULL,
    kind           TEXT NOT NULL DEFAULT 'span',
    worker_id      TEXT NOT NULL DEFAULT '',
    point_id       TEXT,               -- NULL for lifecycle spans
    start_ts       REAL NOT NULL,      -- wall clock (time.time)
    end_ts         REAL,               -- NULL while the span is open
    status         TEXT NOT NULL DEFAULT 'open',
    attrs          TEXT NOT NULL DEFAULT '{}',
    schema_version INTEGER NOT NULL,
    PRIMARY KEY (campaign, span_id)
);
"""

#: columns added to the ``workers`` table after its v4 debut; opening a
#: v4 store migrates in place (ALTER TABLE ADD COLUMN is cheap and
#: backwards-compatible — old readers simply ignore the new columns).
_WORKER_MIGRATIONS = (
    ("span", "TEXT NOT NULL DEFAULT ''"),
    ("spans", "INTEGER NOT NULL DEFAULT 0"),
    ("logs", "INTEGER NOT NULL DEFAULT 0"),
)


@dataclass(frozen=True)
class Lease:
    """One granted lease: a worker's exclusive claim on a point.

    ``attempt`` is monotonic per point (it folds in every prior lease
    and every journaled attempt), so it doubles as the fencing token:
    a result write fenced on ``(worker_id, attempt)`` lands only while
    this exact lease is still the current one.
    """

    point_id: str
    worker_id: str
    attempt: int
    expiry: float
    reclaimed: bool = False  #: True when this grant took over an expired lease


def settled(stored: Optional[Any], expected_hash: Optional[str],
            max_attempts: Optional[int]) -> Optional[str]:
    """Is a point settled?  The campaign layer's *committed ⇒ delivered*.

    ``stored`` is the point's results row (``status`` / ``attempts`` /
    ``config_hash``; ``None`` when nothing was journaled yet).  Returns
    ``"ok"`` for a row stored ok under ``expected_hash``, ``"failed"``
    for a failure that has used up ``max_attempts``, ``None`` for a
    point that still has to run.  Every consumer asks here —
    :meth:`CampaignStore.acquire_leases`, a fabric worker's exit test,
    the coordinator's done count and the local runner's resume pass —
    so they cannot drift apart.  ``max_attempts=None`` is the local
    runner's deliberate difference: it keeps its retry budget per
    invocation, so a ``failed`` row always re-runs on resume.
    """
    if stored is None:
        return None
    if stored["status"] == "ok" and stored["config_hash"] == expected_hash:
        return "ok"
    if (stored["status"] == "failed" and max_attempts is not None
            and stored["attempts"] >= max_attempts):
        return "failed"
    return None


def _library_version() -> str:
    from .. import __version__

    return __version__


class CampaignStore:
    """One SQLite file holding every campaign's results and specs.

    Usable as a context manager; writes are one transaction per point.
    """

    def __init__(self, path: str = DEFAULT_DB_PATH) -> None:
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        # isolation_level=None puts sqlite3 in autocommit: transactions
        # are opened explicitly (BEGIN IMMEDIATE in _txn) so multi-
        # process lease acquisition never deadlocks on a deferred
        # read-to-write upgrade, which busy_timeout cannot retry.
        self._conn = sqlite3.connect(
            self.path, timeout=BUSY_TIMEOUT_MS / 1000.0,
            isolation_level=None,
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
        # WAL lets readers proceed under a writer and writers queue on
        # the busy handler instead of failing; in-memory stores report
        # journal_mode 'memory' and simply stay there.
        self._conn.execute("PRAGMA journal_mode = WAL")
        self._conn.execute("PRAGMA synchronous = NORMAL")
        self._conn.executescript(_TABLES)
        self._migrate_workers()

    def _migrate_workers(self) -> None:
        """Add the v5 worker columns to a pre-v5 ``workers`` table.

        ``CREATE TABLE IF NOT EXISTS`` never alters an existing table,
        so a store created at v4 lacks the span/spans/logs columns the
        heartbeat upsert now writes.
        """
        have = {
            row["name"]
            for row in self._conn.execute(
                "PRAGMA table_info(workers)"
            ).fetchall()
        }
        for column, decl in _WORKER_MIGRATIONS:
            if column not in have:
                self._conn.execute(
                    f"ALTER TABLE workers ADD COLUMN {column} {decl}"
                )

    @contextlib.contextmanager
    def _txn(self) -> Iterator[sqlite3.Connection]:
        """One IMMEDIATE write transaction: commit on exit, roll back on error."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield self._conn
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- campaigns ------------------------------------------------------

    def register(self, spec: CampaignSpec) -> None:
        """Record (or refresh) a campaign's spec for provenance."""
        now = time.time()
        with self._txn():
            self._conn.execute(
                """
                INSERT INTO campaigns (name, description, spec,
                                       created_at, updated_at)
                VALUES (?, ?, ?, ?, ?)
                ON CONFLICT(name) DO UPDATE SET
                    description = excluded.description,
                    spec = excluded.spec,
                    updated_at = excluded.updated_at
                """,
                # No sort_keys: axis order is load-bearing (point ids
                # embed it), and fabric workers rebuild the grid from
                # this JSON — a reordered round-trip would shard a
                # different campaign than the coordinator registered.
                (spec.name, spec.description,
                 json.dumps(spec.to_dict()), now, now),
            )

    def campaigns(self) -> List[Dict[str, Any]]:
        """Stored campaigns with point counts, oldest first."""
        rows = self._conn.execute(
            """
            SELECT c.name, c.description, c.created_at, c.updated_at,
                   SUM(CASE WHEN r.status = 'ok' THEN 1 ELSE 0 END) AS ok,
                   SUM(CASE WHEN r.status = 'failed' THEN 1 ELSE 0 END)
                       AS failed
            FROM campaigns c LEFT JOIN results r ON r.campaign = c.name
            GROUP BY c.name ORDER BY c.created_at
            """
        ).fetchall()
        return [dict(row, ok=row["ok"] or 0, failed=row["failed"] or 0)
                for row in rows]

    def spec(self, campaign: str) -> Optional[CampaignSpec]:
        """The stored spec for a campaign, parsed back, or None."""
        row = self._conn.execute(
            "SELECT spec FROM campaigns WHERE name = ?", (campaign,)
        ).fetchone()
        if row is None:
            return None
        return CampaignSpec.from_dict(json.loads(row["spec"]))

    def delete_campaign(self, campaign: str) -> int:
        """Drop a campaign and its results; returns rows removed."""
        with self._txn():
            cursor = self._conn.execute(
                "DELETE FROM results WHERE campaign = ?", (campaign,)
            )
            for table in ("leases", "workers", "timeseries", "alerts",
                          "spans"):
                self._conn.execute(
                    f"DELETE FROM {table} WHERE campaign = ?", (campaign,)
                )
            self._conn.execute(
                "DELETE FROM campaigns WHERE name = ?", (campaign,)
            )
        return cursor.rowcount

    # -- per-point writes ----------------------------------------------

    def _write(self, campaign: str, point: CampaignPoint, status: str,
               report: Optional[Dict[str, object]], error: Optional[str],
               wall_time: float, attempts: int,
               fence: Optional[Tuple[str, int]] = None,
               spans: Optional[List[Dict[str, Any]]] = None) -> bool:
        with self._txn():
            if fence is not None:
                worker_id, attempt = fence
                row = self._conn.execute(
                    "SELECT worker_id, attempt FROM leases "
                    "WHERE campaign = ? AND point_id = ?",
                    (campaign, point.point_id),
                ).fetchone()
                if (row is None or row["worker_id"] != worker_id
                        or row["attempt"] != attempt):
                    # The lease was reclaimed (or released) out from
                    # under the writer: its result is stale; discard it
                    # so the current owner's row is never clobbered.
                    return False
                # Journal + release in the same transaction: the lease
                # disappears exactly when the durable row exists.
                self._conn.execute(
                    "DELETE FROM leases WHERE campaign = ? "
                    "AND point_id = ?",
                    (campaign, point.point_id),
                )
            self._conn.execute(
                """
                INSERT OR REPLACE INTO results
                    (campaign, point_id, status, grid, scenario,
                     replication, seed, config_hash, repro_version,
                     schema_version, report, error, attempts, wall_time,
                     created_at)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                (
                    campaign, point.point_id, status, point.grid,
                    json.dumps(point.scenario, sort_keys=True),
                    point.replication, point.config.seed,
                    point.config_hash, _library_version(),
                    STORE_SCHEMA_VERSION,
                    json.dumps(report) if report is not None else None,
                    error, attempts, wall_time, time.time(),
                ),
            )
            # Trace spans ride in the same transaction as the result
            # row: a fenced-out write above discards them with it, so
            # a zombie worker's run span can never land while its
            # result is rejected (or vice versa).
            if spans:
                self._upsert_spans(campaign, spans)
        return True

    def record_success(self, campaign: str, point: CampaignPoint,
                       report: Dict[str, object], wall_time: float,
                       attempts: int = 1,
                       fence: Optional[Tuple[str, int]] = None,
                       spans: Optional[List[Dict[str, Any]]] = None
                       ) -> bool:
        """Journal one completed point (durable before the call returns).

        ``fence=(worker_id, attempt)`` makes the write conditional on
        that lease still being current (the fabric workers' path): a
        fenced-out write is discarded and the method returns False.
        ``spans`` (span dicts, see :meth:`record_spans`) land in the
        same transaction, so they share the fence's fate.
        """
        return self._write(campaign, point, "ok", report, None,
                           wall_time, attempts, fence=fence, spans=spans)

    def record_failure(self, campaign: str, point: CampaignPoint,
                       error: str, wall_time: float,
                       attempts: int = 1,
                       fence: Optional[Tuple[str, int]] = None,
                       spans: Optional[List[Dict[str, Any]]] = None
                       ) -> bool:
        """Journal a point whose simulation kept raising.

        Accepts the same lease ``fence`` and ``spans`` as
        :meth:`record_success`.
        """
        return self._write(campaign, point, "failed", None, error,
                           wall_time, attempts, fence=fence, spans=spans)

    def record_timeseries(self, campaign: str, point: CampaignPoint,
                          rows: List[Dict[str, Any]]) -> int:
        """Journal a point's interval samples (one transaction).

        Replaces any previous samples for the point, so a re-run point
        never mixes old and new series; returns the rows written.
        """
        with self._txn():
            self._conn.execute(
                "DELETE FROM timeseries WHERE campaign = ? "
                "AND point_id = ?",
                (campaign, point.point_id),
            )
            self._conn.executemany(
                """
                INSERT INTO timeseries
                    (campaign, point_id, seq, cycle_start, cycle_end,
                     metrics, schema_version)
                VALUES (?, ?, ?, ?, ?, ?, ?)
                """,
                [
                    (
                        campaign, point.point_id, sample["index"],
                        sample["start"], sample["end"],
                        json.dumps(sample), STORE_SCHEMA_VERSION,
                    )
                    for sample in rows
                ],
            )
        return len(rows)

    def record_alerts(self, campaign: str, point: CampaignPoint,
                      rows: List[Dict[str, Any]]) -> int:
        """Journal a point's alert episodes (one transaction).

        Replaces any previous episodes for the point (same semantics as
        :meth:`record_timeseries`); returns the rows written.
        """
        with self._txn():
            self._conn.execute(
                "DELETE FROM alerts WHERE campaign = ? "
                "AND point_id = ?",
                (campaign, point.point_id),
            )
            self._conn.executemany(
                """
                INSERT INTO alerts
                    (campaign, point_id, seq, rule, severity, state,
                     fired_at, resolved_at, value, message,
                     schema_version)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                [
                    (
                        campaign, point.point_id, seq,
                        episode["rule"], episode["severity"],
                        episode["state"], episode["fired_at"],
                        episode["resolved_at"], episode["value"],
                        episode["message"], STORE_SCHEMA_VERSION,
                    )
                    for seq, episode in enumerate(rows)
                ],
            )
        return len(rows)

    # -- spans (distributed tracing) -----------------------------------

    def _upsert_spans(self, campaign: str,
                      rows: List[Dict[str, Any]]) -> int:
        """Insert/refresh span rows inside the caller's transaction.

        Closed spans are immutable: an UPDATE only applies while the
        stored row is still ``open``, so a zombie worker re-journaling
        a span the coordinator already closed as ``aborted`` cannot
        flip it back (the span analogue of the result-write fence).
        """
        written = 0
        for row in rows:
            attrs = json.dumps(row.get("attrs") or {}, sort_keys=True)
            cursor = self._conn.execute(
                """
                UPDATE spans SET parent_id = ?, name = ?, kind = ?,
                    worker_id = ?, point_id = ?, start_ts = ?,
                    end_ts = ?, status = ?, attrs = ?
                WHERE campaign = ? AND span_id = ? AND status = 'open'
                """,
                (row.get("parent_id"), row["name"],
                 row.get("kind", "span"), row.get("worker_id", ""),
                 row.get("point_id"), row["start_ts"],
                 row.get("end_ts"), row.get("status", "open"), attrs,
                 campaign, row["span_id"]),
            )
            if cursor.rowcount:
                written += 1
                continue
            cursor = self._conn.execute(
                """
                INSERT OR IGNORE INTO spans
                    (campaign, span_id, trace_id, parent_id, name,
                     kind, worker_id, point_id, start_ts, end_ts,
                     status, attrs, schema_version)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                (campaign, row["span_id"], row["trace_id"],
                 row.get("parent_id"), row["name"],
                 row.get("kind", "span"), row.get("worker_id", ""),
                 row.get("point_id"), row["start_ts"],
                 row.get("end_ts"), row.get("status", "open"), attrs,
                 STORE_SCHEMA_VERSION),
            )
            written += cursor.rowcount
        return written

    def record_spans(self, campaign: str,
                     rows: List[Dict[str, Any]]) -> int:
        """Journal trace spans (dicts from ``Span.to_dict()``).

        Upserts by ``(campaign, span_id)``: open spans may be
        re-journaled (renewals, closure), closed spans are immutable —
        a late write against a span the coordinator closed ``aborted``
        is silently dropped.  Returns the rows that landed.
        """
        if not rows:
            return 0
        with self._txn():
            return self._upsert_spans(campaign, rows)

    def spans(self, campaign: str, point_id: Optional[str] = None,
              status: Optional[str] = None) -> List[Dict[str, Any]]:
        """Stored spans (attrs parsed), trace order (start_ts, span_id)."""
        query = "SELECT * FROM spans WHERE campaign = ?"
        params: Tuple[Any, ...] = (campaign,)
        if point_id is not None:
            query += " AND point_id = ?"
            params += (point_id,)
        if status is not None:
            query += " AND status = ?"
            params += (status,)
        query += " ORDER BY start_ts, span_id"
        out = []
        for row in self._conn.execute(query, params).fetchall():
            entry = dict(row)
            entry["attrs"] = json.loads(row["attrs"])
            out.append(entry)
        return out

    def span_counts(self, campaign: str) -> Dict[str, int]:
        """``{status: count}`` over a campaign's stored spans — the
        coordinator's cheap per-poll gauge (no attrs parsing)."""
        rows = self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM spans "
            "WHERE campaign = ? GROUP BY status",
            (campaign,),
        ).fetchall()
        return {row["status"]: row["n"] for row in rows}

    def open_root_span(self, campaign: str) -> Optional[Dict[str, Any]]:
        """The campaign's open root span, if the coordinator journaled
        one — the trace-context fallback for hand-started workers whose
        environment carries no traceparent."""
        row = self._conn.execute(
            "SELECT * FROM spans WHERE campaign = ? AND kind = 'root' "
            "AND status = 'open' ORDER BY start_ts LIMIT 1",
            (campaign,),
        ).fetchone()
        if row is None:
            return None
        entry = dict(row)
        entry["attrs"] = json.loads(row["attrs"])
        return entry

    def close_open_spans(self, campaign: str, status: str = "aborted",
                         worker_id: Optional[str] = None,
                         point_id: Optional[str] = None,
                         now: Optional[float] = None) -> int:
        """Force-close open spans (the coordinator's settle-time sweep).

        Scoped by ``worker_id``/``point_id`` when given; returns rows
        closed.  Used for orphans a reclaim superseded and for the
        final "no span left open" guarantee at campaign settle.
        """
        if now is None:
            now = time.time()
        query = ("UPDATE spans SET status = ?, end_ts = ? "
                 "WHERE campaign = ? AND status = 'open'")
        params: Tuple[Any, ...] = (status, now, campaign)
        if worker_id is not None:
            query += " AND worker_id = ?"
            params += (worker_id,)
        if point_id is not None:
            query += " AND point_id = ?"
            params += (point_id,)
        with self._txn():
            cursor = self._conn.execute(query, params)
        return cursor.rowcount

    # -- leases (distributed campaign fabric) --------------------------

    def acquire_leases(
        self,
        campaign: str,
        worker_id: str,
        candidates: Sequence[Tuple[str, Optional[str]]],
        limit: int,
        ttl: float,
        max_attempts: int = 3,
        now: Optional[float] = None,
    ) -> List[Lease]:
        """Atomically lease up to ``limit`` pending points to ``worker_id``.

        ``candidates`` is an ordered ``(point_id, expected_config_hash)``
        sequence — normally every point of the expanded grid.  Inside
        one IMMEDIATE transaction a candidate is granted unless it is
        :func:`settled` (stored ``ok`` under the expected hash, or
        ``failed`` with its attempts used up) or covered by a *live*
        lease (another worker is running it).

        A candidate whose lease has **expired** is taken over —
        ``Lease.reclaimed`` is True and the attempt advances past the
        dead worker's, so the dead worker's late writes are fenced out.
        ``now`` defaults to ``time.time()``; tests inject clocks.
        """
        if now is None:
            now = time.time()
        granted: List[Lease] = []
        with self._txn():
            results = {
                row["point_id"]: row
                for row in self._conn.execute(
                    "SELECT point_id, status, attempts, config_hash "
                    "FROM results WHERE campaign = ?",
                    (campaign,),
                ).fetchall()
            }
            leases = {
                row["point_id"]: row
                for row in self._conn.execute(
                    "SELECT point_id, worker_id, lease_expiry, attempt "
                    "FROM leases WHERE campaign = ?",
                    (campaign,),
                ).fetchall()
            }
            for point_id, expected_hash in candidates:
                if len(granted) >= limit:
                    break
                stored = results.get(point_id)
                if settled(stored, expected_hash, max_attempts):
                    continue  # completed or terminally failed
                lease = leases.get(point_id)
                reclaimed = False
                prior = 0
                if lease is not None:
                    if lease["lease_expiry"] > now:
                        continue  # live lease: someone else owns it
                    reclaimed = lease["worker_id"] != worker_id
                    prior = lease["attempt"]
                if stored is not None:
                    prior = max(prior, stored["attempts"])
                attempt = prior + 1
                expiry = now + ttl
                self._conn.execute(
                    "INSERT OR REPLACE INTO leases "
                    "(campaign, point_id, worker_id, lease_expiry, "
                    " attempt) VALUES (?, ?, ?, ?, ?)",
                    (campaign, point_id, worker_id, expiry, attempt),
                )
                if reclaimed:
                    # The dead owner's lease/run spans for this point
                    # are orphans now: close them 'aborted' in the same
                    # transaction that transfers the lease, so the
                    # merged timeline never shows an unterminated span
                    # for a SIGKILLed worker (and the closed-spans-
                    # immutable rule keeps the zombie from reopening
                    # them).
                    self._conn.execute(
                        "UPDATE spans SET status = 'aborted', "
                        "end_ts = ? WHERE campaign = ? AND point_id = ?"
                        " AND worker_id = ? AND status = 'open'",
                        (now, campaign, point_id, lease["worker_id"]),
                    )
                granted.append(Lease(point_id, worker_id, attempt,
                                     expiry, reclaimed))
        return granted

    def renew_leases(self, campaign: str, worker_id: str,
                     point_ids: Sequence[str], ttl: float,
                     now: Optional[float] = None) -> int:
        """Heartbeat: push ``worker_id``'s leases out by ``ttl`` seconds.

        Only leases still owned by the worker renew — a lease lost to a
        reclaim stays with its new owner.  Returns how many renewed.
        """
        if now is None:
            now = time.time()
        if not point_ids:
            return 0
        with self._txn():
            marks = ",".join("?" for _ in point_ids)
            cursor = self._conn.execute(
                f"UPDATE leases SET lease_expiry = ? "
                f"WHERE campaign = ? AND worker_id = ? "
                f"AND point_id IN ({marks})",
                (now + ttl, campaign, worker_id, *point_ids),
            )
        return cursor.rowcount

    def release_lease(self, campaign: str, point_id: str,
                      worker_id: str, attempt: int) -> bool:
        """Drop a lease without journaling (abandoning an attempt).

        Fenced like the result writes: only the ``(worker_id,
        attempt)`` owner can release.  Returns True if a row was
        removed.
        """
        with self._txn():
            cursor = self._conn.execute(
                "DELETE FROM leases WHERE campaign = ? AND point_id = ? "
                "AND worker_id = ? AND attempt = ?",
                (campaign, point_id, worker_id, attempt),
            )
        return cursor.rowcount > 0

    def leases(self, campaign: str,
               now: Optional[float] = None) -> List[Dict[str, Any]]:
        """Every lease row, flagged ``live`` or expired, oldest first."""
        if now is None:
            now = time.time()
        rows = self._conn.execute(
            "SELECT point_id, worker_id, lease_expiry, attempt "
            "FROM leases WHERE campaign = ? ORDER BY lease_expiry",
            (campaign,),
        ).fetchall()
        return [dict(row, live=row["lease_expiry"] > now)
                for row in rows]

    # -- workers (fabric heartbeats) -----------------------------------

    def worker_heartbeat(
        self,
        campaign: str,
        worker_id: str,
        state: str = "running",
        pid: Optional[int] = None,
        host: str = "",
        done: int = 0,
        failed: int = 0,
        leases: int = 0,
        reclaims: int = 0,
        span: str = "",
        spans: int = 0,
        logs: int = 0,
        now: Optional[float] = None,
    ) -> None:
        """Upsert one worker's liveness row (the fabric heartbeat).

        ``span`` is the worker's *current* span (``"name span_id"``,
        shown in the watch pane); ``spans``/``logs`` are its finished-
        span and emitted-log-record tallies.
        """
        if now is None:
            now = time.time()
        with self._txn():
            self._conn.execute(
                """
                INSERT INTO workers (campaign, worker_id, pid, host,
                                     state, started_at, last_seen,
                                     done, failed, leases, reclaims,
                                     span, spans, logs)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT(campaign, worker_id) DO UPDATE SET
                    pid = excluded.pid, host = excluded.host,
                    state = excluded.state, last_seen = excluded.last_seen,
                    done = excluded.done, failed = excluded.failed,
                    leases = excluded.leases, reclaims = excluded.reclaims,
                    span = excluded.span, spans = excluded.spans,
                    logs = excluded.logs
                """,
                (campaign, worker_id, pid, host, state, now, now,
                 done, failed, leases, reclaims, span, spans, logs),
            )

    def workers(self, campaign: str) -> List[Dict[str, Any]]:
        """Every worker heartbeat row for a campaign, oldest first."""
        rows = self._conn.execute(
            "SELECT * FROM workers WHERE campaign = ? "
            "ORDER BY started_at, worker_id",
            (campaign,),
        ).fetchall()
        return [dict(row) for row in rows]

    # -- queries --------------------------------------------------------

    def result_states(self, campaign: str) -> Dict[str, Dict[str, Any]]:
        """point_id -> {status, attempts, config_hash} for every row.

        The fabric's settlement query: cheaper than :meth:`rows` (no
        JSON parsing) and it includes failed points, unlike
        :meth:`completed`.
        """
        rows = self._conn.execute(
            "SELECT point_id, status, attempts, config_hash "
            "FROM results WHERE campaign = ?",
            (campaign,),
        ).fetchall()
        return {
            row["point_id"]: {
                "status": row["status"],
                "attempts": row["attempts"],
                "config_hash": row["config_hash"],
            }
            for row in rows
        }

    def settlement(self, campaign: str,
                   expected: Dict[str, Optional[str]],
                   max_attempts: Optional[int]) -> Dict[str, str]:
        """point_id -> ``"ok"`` | ``"failed"`` for the :func:`settled`
        points of ``expected`` (point_id -> expected config hash)."""
        states = self.result_states(campaign)
        outcomes = {}
        for point_id, expected_hash in expected.items():
            outcome = settled(states.get(point_id), expected_hash,
                              max_attempts)
            if outcome is not None:
                outcomes[point_id] = outcome
        return outcomes

    def completed(self, campaign: str) -> Dict[str, Optional[str]]:
        """point_id -> stored config hash for every 'ok' point."""
        rows = self._conn.execute(
            "SELECT point_id, config_hash FROM results "
            "WHERE campaign = ? AND status = 'ok'",
            (campaign,),
        ).fetchall()
        return {row["point_id"]: row["config_hash"] for row in rows}

    def is_done(self, campaign: str, point: CampaignPoint) -> bool:
        """True when ``point`` is stored 'ok' with a matching config hash."""
        stored = self.result_states(campaign).get(point.point_id)
        return settled(stored, point.config_hash, None) == "ok"

    def rows(self, campaign: str,
             status: Optional[str] = None) -> List[Dict[str, Any]]:
        """Stored points as flat dicts: provenance + scenario + metrics.

        Scenario axis values appear as top-level keys, metric values
        under their report names; provenance fields keep their column
        names (``config_hash``, ``repro_version``, ...).
        """
        query = "SELECT * FROM results WHERE campaign = ?"
        params: Tuple[Any, ...] = (campaign,)
        if status is not None:
            query += " AND status = ?"
            params += (status,)
        query += " ORDER BY point_id"
        out = []
        for row in self._conn.execute(query, params).fetchall():
            flat: Dict[str, Any] = {
                "campaign": row["campaign"],
                "point_id": row["point_id"],
                "status": row["status"],
                "grid": row["grid"],
                "replication": row["replication"],
                "seed": row["seed"],
                "config_hash": row["config_hash"],
                "repro_version": row["repro_version"],
                "schema_version": row["schema_version"],
                "attempts": row["attempts"],
                "wall_time": row["wall_time"],
                "created_at": row["created_at"],
                "error": row["error"],
            }
            flat.update(json.loads(row["scenario"]))
            if row["report"]:
                flat.update(json.loads(row["report"]))
            out.append(flat)
        return out

    def points(self, campaign: str,
               status: Optional[str] = None) -> List[Dict[str, Any]]:
        """Stored points with ``scenario`` and ``report`` kept nested.

        The structured sibling of :meth:`rows` — report code that must
        tell axis values apart from metric values uses this.
        """
        query = "SELECT * FROM results WHERE campaign = ?"
        params: Tuple[Any, ...] = (campaign,)
        if status is not None:
            query += " AND status = ?"
            params += (status,)
        query += " ORDER BY point_id"
        out = []
        for row in self._conn.execute(query, params).fetchall():
            entry = dict(row)
            entry["scenario"] = json.loads(row["scenario"])
            entry["report"] = (json.loads(row["report"])
                               if row["report"] else None)
            out.append(entry)
        return out

    def timeseries(self, campaign: str,
                   point_id: Optional[str] = None
                   ) -> Dict[str, List[Dict[str, Any]]]:
        """point_id -> interval samples (time order) for a campaign."""
        query = ("SELECT point_id, metrics FROM timeseries "
                 "WHERE campaign = ?")
        params: Tuple[Any, ...] = (campaign,)
        if point_id is not None:
            query += " AND point_id = ?"
            params += (point_id,)
        query += " ORDER BY point_id, seq"
        out: Dict[str, List[Dict[str, Any]]] = {}
        for row in self._conn.execute(query, params).fetchall():
            out.setdefault(row["point_id"], []).append(
                json.loads(row["metrics"])
            )
        return out

    def alerts(self, campaign: str,
               point_id: Optional[str] = None
               ) -> Dict[str, List[Dict[str, Any]]]:
        """point_id -> alert episodes (firing order) for a campaign."""
        query = ("SELECT point_id, rule, severity, state, fired_at, "
                 "resolved_at, value, message FROM alerts "
                 "WHERE campaign = ?")
        params: Tuple[Any, ...] = (campaign,)
        if point_id is not None:
            query += " AND point_id = ?"
            params += (point_id,)
        query += " ORDER BY point_id, seq"
        out: Dict[str, List[Dict[str, Any]]] = {}
        for row in self._conn.execute(query, params).fetchall():
            entry = dict(row)
            entry.pop("point_id")
            out.setdefault(row["point_id"], []).append(entry)
        return out

    def alert_counts(self, campaign: str) -> Dict[str, Dict[str, int]]:
        """point_id -> {rule: episode count} for a campaign."""
        rows = self._conn.execute(
            "SELECT point_id, rule, COUNT(*) AS n FROM alerts "
            "WHERE campaign = ? GROUP BY point_id, rule",
            (campaign,),
        ).fetchall()
        out: Dict[str, Dict[str, int]] = {}
        for row in rows:
            out.setdefault(row["point_id"], {})[row["rule"]] = row["n"]
        return out

    def summary(self, campaign: str) -> Dict[str, Any]:
        """Counts and totals for one campaign's stored points."""
        row = self._conn.execute(
            """
            SELECT
                SUM(CASE WHEN status = 'ok' THEN 1 ELSE 0 END) AS ok,
                SUM(CASE WHEN status = 'failed' THEN 1 ELSE 0 END)
                    AS failed,
                SUM(wall_time) AS wall_time,
                COUNT(DISTINCT repro_version) AS versions
            FROM results WHERE campaign = ?
            """,
            (campaign,),
        ).fetchone()
        return {
            "campaign": campaign,
            "ok": row["ok"] or 0,
            "failed": row["failed"] or 0,
            "wall_time": row["wall_time"] or 0.0,
            "versions": row["versions"] or 0,
        }
