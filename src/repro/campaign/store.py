"""SQLite-backed campaign results store with full provenance.

Every completed point is recorded the moment it lands (one transaction
per point, so a crash loses at most the in-flight simulations) together
with everything needed to trust it later: the
:func:`~repro.sim.parallel.config_cache_key` hash of the exact
:class:`~repro.sim.config.SimConfig` that ran, ``repro.__version__``,
the store schema version, wall time and a timestamp.  Failures are
recorded too (status ``failed`` with the error text), so a campaign
report can show holes instead of silently dropping scenarios.

Resume semantics live in :func:`settled`: a point is *done* if its
stored status is ``ok`` **and** its stored config hash matches the
hash of the config the current spec would run — edit the spec (or
upgrade the simulator version embedded in the hash entry) and the
stale points re-run instead of being trusted — or if its stored
failure has used up the attempt budget the stored spec carries.  So
the store alone answers "is this campaign finished, with how many
failures?", for any reader (``readonly=True`` opens one that never
writes).

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
from urllib.parse import quote

from .spec import DEFAULT_MAX_ATTEMPTS, CampaignPoint, CampaignSpec

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

#: the schema, run statement by statement (split on ``;``, so no
#: statement may contain one) when a store's stamp is below ours.
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

#: the provenance columns of a :meth:`CampaignStore.rows` entry, in
#: the order its keys come.
_ROW_COLUMNS = ("campaign", "point_id", "status", "grid", "replication",
                "seed", "config_hash", "repro_version", "schema_version",
                "attempts", "wall_time", "created_at", "error")

#: an alert episode as :meth:`CampaignStore.alerts` returns it (less
#: ``point_id``, which keys it).
_ALERT_COLUMNS = ("point_id, rule, severity, state, fired_at, "
                  "resolved_at, value, message")

#: point ids bound per ``IN (...)`` query, under SQLite's smallest
#: variable limit (999 before 3.32).
_IDS_PER_QUERY = 500

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

    ``attempt`` folds in every prior lease and every attempt journaled
    under the point's current config (a row an older config journaled
    used none of the budget), so it advances past any lease it takes
    over and doubles as the fencing token: a result write fenced on
    ``(worker_id, attempt)`` lands only while this exact lease is still
    the current one.
    """

    point_id: str
    worker_id: str
    attempt: int
    expiry: float
    reclaimed: bool = False  #: True when this grant took over an expired lease


def settled(stored: Optional[Any], expected_hash: Optional[str],
            max_attempts: int) -> Optional[str]:
    """Is a point settled?  The campaign layer's *committed ⇒ delivered*.

    ``stored`` is the point's results row (``status`` / ``attempts`` /
    ``config_hash``; ``None`` when nothing was journaled yet).  Returns
    ``"ok"`` for a row stored ok under ``expected_hash``, ``"failed"``
    for a failure under ``expected_hash`` that has used up
    ``max_attempts`` (the spec's attempt budget), ``None`` for a point
    that still has to run — including any row journaled under another
    config (an edited spec, another simulator), whose outcome says
    nothing about this one.  Every consumer asks here, with the budget
    the stored spec carries — :meth:`CampaignStore.acquire_leases`, a
    fabric worker's exit test, the coordinator's done count, the local
    runner's resume pass and ``cr-sim campaign watch`` — so they cannot
    drift apart.
    """
    if stored is None or stored["config_hash"] != expected_hash:
        return None
    if stored["status"] == "ok":
        return "ok"
    if stored["attempts"] >= max_attempts:
        return "failed"
    return None


def attempts_used(stored: Optional[Any],
                  expected_hash: Optional[str]) -> int:
    """The attempts of the budget a point has used: its journaled
    ``attempts`` under ``expected_hash``, none under another config."""
    if stored is None or stored["config_hash"] != expected_hash:
        return 0
    return stored["attempts"]


def _library_version() -> str:
    from .. import __version__

    return __version__


class CampaignStore:
    """One SQLite file holding every campaign's results and specs.

    Usable as a context manager; writes are one transaction per point.
    The file carries its schema version in ``PRAGMA user_version``: a
    read-write open creates or migrates the tables only when that stamp
    is below :data:`STORE_SCHEMA_VERSION` (a new file, or one an older
    release wrote) and then stamps it, so reopening a current store
    runs no DDL.  ``readonly=True`` opens an existing file for reading
    only (``cr-sim campaign watch``): nothing is created, migrated,
    stamped or written, and under WAL the reader never blocks a
    writer.  A missing file raises :class:`FileNotFoundError`; in
    either mode, a file that is no campaign store raises
    :class:`sqlite3.DatabaseError` here, not at the first read or
    write.
    """

    def __init__(self, path: str = DEFAULT_DB_PATH,
                 readonly: bool = False) -> None:
        self.path = str(path)
        if readonly:
            if not os.path.isfile(self.path):
                raise FileNotFoundError(f"no campaign store at {self.path}")
            target = f"file:{quote(os.path.abspath(self.path))}?mode=ro"
        else:
            target = self.path
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
        # isolation_level=None puts sqlite3 in autocommit: transactions
        # are opened explicitly (BEGIN IMMEDIATE in _txn) so multi-
        # process lease acquisition never deadlocks on a deferred
        # read-to-write upgrade, which busy_timeout cannot retry.
        self._conn = sqlite3.connect(
            target, timeout=BUSY_TIMEOUT_MS / 1000.0,
            isolation_level=None, uri=readonly,
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
        if readonly:
            self._conn.execute("SELECT 1 FROM campaigns LIMIT 1")
            return
        self._conn.execute("PRAGMA synchronous = NORMAL")
        if self._stamp() < STORE_SCHEMA_VERSION:
            self._create()

    def _stamp(self) -> int:
        """The schema version the file is stamped with (0: never)."""
        return self._conn.execute("PRAGMA user_version").fetchone()[0]

    def _create(self) -> None:
        """Bring a new or older store up to this schema and stamp it.

        Runs only below :data:`STORE_SCHEMA_VERSION`, so opening a
        stamped store costs no DDL.  A newer stamp is never lowered.
        """
        # WAL lets readers proceed under a writer and writers queue on
        # the busy handler instead of failing; in-memory stores report
        # journal_mode 'memory' and simply stay there.
        self._conn.execute("PRAGMA journal_mode = WAL")
        # One write transaction for the tables, the migration and the
        # stamp: two processes opening one old store cannot both add a
        # column, and a store is stamped only once it is complete.
        with self._txn():
            for statement in _TABLES.split(";"):
                self._conn.execute(statement)
            self._migrate_workers()
            if self._stamp() < STORE_SCHEMA_VERSION:
                self._conn.execute(
                    f"PRAGMA user_version = {STORE_SCHEMA_VERSION}")

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

    def _tuples(self, query: str,
                params: Tuple[Any, ...]) -> List[Tuple[Any, ...]]:
        """``query``'s rows as plain tuples: a ``sqlite3.Row`` lookup by
        name per column is most of what a settled read costs."""
        cursor = self._conn.cursor()
        cursor.row_factory = None
        return cursor.execute(query, params).fetchall()

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
        """Record (or refresh) a campaign's spec for provenance, and
        stamp ``updated_at`` as the start of the run that submits it."""
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

    def spec_text(self, campaign: str) -> Optional[str]:
        """The stored spec for a campaign, as :meth:`register` wrote
        its JSON, or None."""
        row = self._conn.execute(
            "SELECT spec FROM campaigns WHERE name = ?", (campaign,)
        ).fetchone()
        return None if row is None else row[0]

    def spec(self, campaign: str) -> Optional[CampaignSpec]:
        """The stored spec for a campaign, parsed back, or None."""
        text = self.spec_text(campaign)
        if text is None:
            return None
        return CampaignSpec.from_dict(json.loads(text))

    def updated_at(self, campaign: str) -> Optional[float]:
        """When ``campaign`` was last registered, or None if it is not:
        the start of the last run that had points to settle or a new
        spec to record (a settled re-run registers nothing)."""
        row = self._conn.execute(
            "SELECT updated_at FROM campaigns WHERE name = ?", (campaign,)
        ).fetchone()
        return None if row is None else row["updated_at"]

    # -- per-point writes ----------------------------------------------

    def _write(self, campaign: str, point: CampaignPoint, status: str,
               report: Optional[Dict[str, object]], error: Optional[str],
               wall_time: float, attempts: int,
               fence: Optional[Tuple[str, int]] = None,
               spans: Optional[List[Dict[str, Any]]] = None,
               series: Optional[List[Dict[str, Any]]] = None,
               alerts: Optional[List[Dict[str, Any]]] = None) -> bool:
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
            # Trace spans, interval samples and alert episodes ride in
            # the same transaction as the result row: a fenced-out write
            # above discards them with it, so a zombie worker's run span
            # can never land while its result is rejected (or vice
            # versa), and a settled row never lacks its side tables.
            if spans:
                self._upsert_spans(campaign, spans)
            if series:
                self._replace_timeseries(campaign, point, series)
            if alerts:
                self._replace_alerts(campaign, point, alerts)
        return True

    def record_success(self, campaign: str, point: CampaignPoint,
                       report: Dict[str, object], wall_time: float,
                       attempts: int = 1,
                       fence: Optional[Tuple[str, int]] = None,
                       spans: Optional[List[Dict[str, Any]]] = None,
                       series: Optional[List[Dict[str, Any]]] = None,
                       alerts: Optional[List[Dict[str, Any]]] = None
                       ) -> bool:
        """Journal one completed point (durable before the call returns).

        ``fence=(worker_id, attempt)`` makes the write conditional on
        that lease still being current (the fabric workers' path): a
        fenced-out write is discarded and the method returns False.
        ``spans`` (span dicts, see :meth:`record_spans`), ``series``
        (interval samples, see :meth:`record_timeseries`) and
        ``alerts`` (alert episodes, replacing the point's earlier ones)
        land in the same transaction, so they share the fence's fate
        and the row is never settled without them.
        """
        return self._write(campaign, point, "ok", report, None,
                           wall_time, attempts, fence=fence, spans=spans,
                           series=series, alerts=alerts)

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
            self._replace_timeseries(campaign, point, rows)
        return len(rows)

    def _replace_timeseries(self, campaign: str, point: CampaignPoint,
                            rows: List[Dict[str, Any]]) -> None:
        """Replace a point's samples inside the caller's transaction."""
        self._conn.execute(
            "DELETE FROM timeseries WHERE campaign = ? AND point_id = ?",
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

    def _replace_alerts(self, campaign: str, point: CampaignPoint,
                        rows: List[Dict[str, Any]]) -> None:
        """Replace a point's alert episodes inside the caller's
        transaction."""
        self._conn.execute(
            "DELETE FROM alerts WHERE campaign = ? AND point_id = ?",
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

    def spans(self, campaign: str) -> List[Dict[str, Any]]:
        """Stored spans (attrs parsed), trace order (start_ts, span_id)."""
        out = []
        for row in self._conn.execute(
            "SELECT * FROM spans WHERE campaign = ? "
            "ORDER BY start_ts, span_id", (campaign,),
        ).fetchall():
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

    def close_open_spans(self, campaign: str,
                         now: Optional[float] = None) -> int:
        """Close a campaign's open spans as ``aborted`` (the settle-time
        sweep behind "no span left open"); returns rows closed."""
        if now is None:
            now = time.time()
        with self._txn():
            cursor = self._conn.execute(
                "UPDATE spans SET status = 'aborted', end_ts = ? "
                "WHERE campaign = ? AND status = 'open'", (now, campaign),
            )
        return cursor.rowcount

    # -- leases (distributed campaign fabric) --------------------------

    def acquire_leases(
        self,
        campaign: str,
        worker_id: str,
        candidates: Sequence[Tuple[str, Optional[str]]],
        limit: int,
        ttl: float,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        now: Optional[float] = None,
    ) -> List[Lease]:
        """Atomically lease up to ``limit`` pending points to ``worker_id``.

        ``candidates`` is an ordered ``(point_id, expected_config_hash)``
        sequence — normally every point of the expanded grid.  Inside
        one IMMEDIATE transaction a candidate is granted unless it is
        :func:`settled` (stored ``ok`` under the expected hash, or
        ``failed`` under it with its attempts used up) or covered by a
        *live* lease (another worker is running it).  A row journaled
        under another hash counts no attempts: the point starts over at
        attempt 1.

        A candidate whose lease has **expired** is taken over —
        ``Lease.reclaimed`` is True and the attempt advances past the
        dead worker's, so the dead worker's late writes are fenced out.
        ``now`` defaults to ``time.time()``; tests inject clocks.
        """
        if now is None:
            now = time.time()
        granted: List[Lease] = []
        with self._txn():
            results = self.result_states(campaign)
            leases = {
                point_id: (owner, expiry, attempt)
                for point_id, owner, expiry, attempt in self._tuples(
                    "SELECT point_id, worker_id, lease_expiry, attempt "
                    "FROM leases WHERE campaign = ?",
                    (campaign,),
                )
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
                    owner, lease_expiry, prior = lease
                    if lease_expiry > now:
                        continue  # live lease: someone else owns it
                    reclaimed = owner != worker_id
                attempt = max(prior,
                              attempts_used(stored, expected_hash)) + 1
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
                        (now, campaign, point_id, owner),
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
    ) -> None:
        """Upsert one worker's liveness row (the fabric heartbeat).

        ``span`` is the worker's *current* span (``"name span_id"``,
        shown in the watch pane); ``spans`` is its finished-span tally.
        The v5 ``logs`` column is left at 0: it stays in the schema so
        stores of every version open unchanged.
        """
        now = time.time()
        with self._txn():
            self._conn.execute(
                """
                INSERT INTO workers (campaign, worker_id, pid, host,
                                     state, started_at, last_seen,
                                     done, failed, leases, reclaims,
                                     span, spans)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT(campaign, worker_id) DO UPDATE SET
                    pid = excluded.pid, host = excluded.host,
                    state = excluded.state, last_seen = excluded.last_seen,
                    done = excluded.done, failed = excluded.failed,
                    leases = excluded.leases, reclaims = excluded.reclaims,
                    span = excluded.span, spans = excluded.spans
                """,
                (campaign, worker_id, pid, host, state, now, now,
                 done, failed, leases, reclaims, span, spans),
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
        return {
            point_id: {"status": status, "attempts": attempts,
                       "config_hash": config_hash}
            for point_id, status, attempts, config_hash in self._tuples(
                "SELECT point_id, status, attempts, config_hash "
                "FROM results WHERE campaign = ?",
                (campaign,),
            )
        }

    def settlement(self, campaign: str,
                   expected: Dict[str, Optional[str]],
                   max_attempts: int) -> Dict[str, str]:
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

    def journal_rows(self, campaign: str,
                     point_ids: Sequence[str]) -> List[Dict[str, Any]]:
        """What the journal holds for ``point_ids``, in the order the
        rows landed: ``wall_time``, the stored metric row (``report``,
        parsed; None for a failure) and the point's alert episodes
        (``alerts``).  The fabric coordinator asks only for the points
        settled since its last poll."""
        found: Dict[str, Any] = {}
        alerts: Dict[str, List[Dict[str, Any]]] = {}
        ids = list(dict.fromkeys(point_ids))
        for at in range(0, len(ids), _IDS_PER_QUERY):
            chunk = ids[at:at + _IDS_PER_QUERY]
            marks = ", ".join("?" * len(chunk))
            for row in self._conn.execute(
                "SELECT point_id, wall_time, report, created_at "
                f"FROM results WHERE campaign = ? AND point_id IN ({marks})",
                (campaign, *chunk),
            ):
                found[row["point_id"]] = row
            for row in self._conn.execute(
                f"SELECT {_ALERT_COLUMNS} FROM alerts WHERE campaign = ? "
                f"AND point_id IN ({marks}) ORDER BY point_id, seq",
                (campaign, *chunk),
            ):
                entry = dict(row)
                alerts.setdefault(entry.pop("point_id"), []).append(entry)
        out = []
        for point_id in point_ids:
            row = found.get(point_id)
            if row is not None:
                out.append({
                    "point_id": point_id,
                    "wall_time": row["wall_time"],
                    "created_at": row["created_at"],
                    "report": (json.loads(row["report"])
                               if row["report"] else None),
                    "alerts": alerts.get(point_id, []),
                })
        out.sort(key=lambda row: row["created_at"])
        return out

    def rows(self, campaign: str,
             status: Optional[str] = None) -> List[Dict[str, Any]]:
        """Stored points as flat dicts: provenance + scenario + metrics.

        Scenario axis values appear as top-level keys, metric values
        under their report names; provenance fields keep their column
        names (``config_hash``, ``repro_version``, ...).
        """
        query = (f"SELECT {', '.join(_ROW_COLUMNS)}, scenario, report "
                 f"FROM results WHERE campaign = ?")
        params: Tuple[Any, ...] = (campaign,)
        if status is not None:
            query += " AND status = ?"
            params += (status,)
        query += " ORDER BY point_id"
        out = []
        for row in self._tuples(query, params):
            flat: Dict[str, Any] = dict(zip(_ROW_COLUMNS, row))
            flat.update(json.loads(row[-2]))
            if row[-1]:
                flat.update(json.loads(row[-1]))
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

    def timeseries(self, campaign: str) -> Dict[str, List[Dict[str, Any]]]:
        """point_id -> interval samples (time order) for a campaign."""
        out: Dict[str, List[Dict[str, Any]]] = {}
        for row in self._conn.execute(
            "SELECT point_id, metrics FROM timeseries WHERE campaign = ? "
            "ORDER BY point_id, seq", (campaign,),
        ).fetchall():
            out.setdefault(row["point_id"], []).append(
                json.loads(row["metrics"])
            )
        return out

    def alerts(self, campaign: str) -> Dict[str, List[Dict[str, Any]]]:
        """point_id -> alert episodes (firing order) for a campaign."""
        out: Dict[str, List[Dict[str, Any]]] = {}
        for row in self._conn.execute(
            f"SELECT {_ALERT_COLUMNS} FROM alerts WHERE campaign = ? "
            "ORDER BY point_id, seq", (campaign,),
        ).fetchall():
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
