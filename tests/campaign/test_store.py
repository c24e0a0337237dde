"""CampaignStore: provenance recording, resume queries, reopening."""

import json
import sqlite3

import pytest

from repro import __version__
from repro.campaign import CampaignSpec, CampaignStore
from repro.campaign import store as store_module
from repro.campaign.store import (STORE_SCHEMA_VERSION, attempts_used,
                                  settled)


@pytest.fixture
def spec():
    return CampaignSpec.from_dict({
        "name": "s",
        "base": {"radix": 4, "warmup": 50, "measure": 200,
                 "message_length": 8},
        "axes": {"routing": ["cr", "dor"], "load": [0.1]},
        "replications": 2,
    })


@pytest.fixture
def store(tmp_path):
    with CampaignStore(str(tmp_path / "c.sqlite")) as s:
        yield s


class TestSpecRegistry:
    def test_register_and_read_back(self, store, spec):
        store.register(spec)
        assert store.spec("s") == spec
        assert store.spec("missing") is None

    def test_campaign_listing_counts(self, store, spec):
        store.register(spec)
        points = list(spec.points())
        store.record_success("s", points[0], {"latency_mean": 1.0}, 0.1)
        store.record_failure("s", points[1], "boom", 0.1)
        (entry,) = store.campaigns()
        assert (entry["name"], entry["ok"], entry["failed"]) == ("s", 1, 1)


class TestProvenance:
    def test_success_row_carries_provenance(self, store, spec):
        point = next(iter(spec.points()))
        store.record_success("s", point, {"latency_mean": 2.5}, 0.25,
                             attempts=3)
        (row,) = store.rows("s")
        assert row["status"] == "ok"
        assert row["repro_version"] == __version__
        assert row["schema_version"] == STORE_SCHEMA_VERSION
        assert row["config_hash"] and len(row["config_hash"]) == 64
        assert row["attempts"] == 3
        assert row["wall_time"] == 0.25
        assert row["created_at"] > 0
        # scenario axes and metrics are flattened into the row
        assert row["routing"] == "cr"
        assert row["load"] == 0.1
        assert row["latency_mean"] == 2.5

    def test_failure_row(self, store, spec):
        point = next(iter(spec.points()))
        store.record_failure("s", point, "ValueError('x')", 0.1)
        (row,) = store.rows("s", status="failed")
        assert row["error"] == "ValueError('x')"
        assert store.rows("s", status="ok") == []

    def test_points_keep_structure(self, store, spec):
        point = next(iter(spec.points()))
        store.record_success("s", point, {"latency_mean": 2.5}, 0.1)
        (entry,) = store.points("s")
        assert entry["scenario"] == {"routing": "cr", "load": 0.1}
        assert entry["report"] == {"latency_mean": 2.5}


class TestReadOnly:
    """The watch's connection: it creates, migrates and writes nothing,
    and reads while a writer holds its transaction open."""

    def test_missing_file_is_not_created(self, tmp_path):
        path = tmp_path / "none.sqlite"
        with pytest.raises(FileNotFoundError, match="no campaign store"):
            CampaignStore(str(path), readonly=True)
        assert not path.exists()

    def test_reads_under_an_open_write_and_never_writes(self, tmp_path,
                                                        spec):
        path = str(tmp_path / "c.sqlite")
        point = next(iter(spec.points()))
        with CampaignStore(path) as writer:
            writer.register(spec)
            writer._conn.execute("BEGIN IMMEDIATE")
            writer._conn.execute("UPDATE campaigns SET description = 'x'")
            with CampaignStore(path, readonly=True) as reader:
                assert reader.spec("s") == spec  # the last committed state
                writer._conn.execute("COMMIT")
                writer.record_success("s", point, {"latency_mean": 1.0},
                                      0.1)
                assert list(reader.completed("s")) == [point.point_id]
                with pytest.raises(sqlite3.OperationalError,
                                   match="readonly"):
                    reader.record_failure("s", point, "boom", 0.1)
            assert writer.rows("s")[0]["status"] == "ok"


class TestResumeQueries:
    def test_completed_and_settled(self, store, spec):
        points = list(spec.points())
        store.record_success("s", points[0], {"latency_mean": 1.0}, 0.1)
        store.record_failure("s", points[1], "boom", 0.1)
        done = store.completed("s")
        assert list(done) == [points[0].point_id]
        states = store.result_states("s")
        assert settled(states[points[0].point_id],
                       points[0].config_hash, spec.max_attempts) == "ok"
        assert settled(states[points[1].point_id],
                       points[1].config_hash, spec.max_attempts) is None
        assert settled(states[points[1].point_id],
                       points[1].config_hash, 1) == "failed"

    def test_changed_config_invalidates_done(self, store, spec):
        point = next(iter(spec.points()))
        store.record_success("s", point, {"latency_mean": 1.0}, 0.1)
        changed = point.__class__(
            point_id=point.point_id,
            grid=point.grid,
            scenario=point.scenario,
            replication=point.replication,
            config=point.config.with_(buffer_depth=9),
        )
        stored = store.result_states("s")[point.point_id]
        assert settled(stored, changed.config_hash,
                       spec.max_attempts) is None

    def test_changed_config_restarts_a_spent_failure(self, store, spec):
        """A failure journaled under an old config is no verdict on the
        new one: it is pending, and its attempt count starts over."""
        store.register(spec)
        point = next(iter(spec.points()))
        store.record_failure("s", point, "boom", 0.1,
                             attempts=spec.max_attempts)
        stored = store.result_states("s")[point.point_id]
        assert settled(stored, point.config_hash,
                       spec.max_attempts) == "failed"
        new_hash = point.__class__(
            point_id=point.point_id,
            grid=point.grid,
            scenario=point.scenario,
            replication=point.replication,
            config=point.config.with_(buffer_depth=9),
        ).config_hash
        assert settled(stored, new_hash, spec.max_attempts) is None
        assert attempts_used(stored, point.config_hash) == spec.max_attempts
        assert attempts_used(stored, new_hash) == 0
        (lease,) = store.acquire_leases(
            "s", "w1", [(point.point_id, new_hash)], limit=1, ttl=30.0,
            max_attempts=spec.max_attempts)
        assert lease.attempt == 1

    @pytest.mark.parametrize("per_query", [500, 2])
    def test_journal_rows_match_a_per_point_read(self, store, spec,
                                                 monkeypatch, per_query):
        """One query per chunk of ids reads what one query per point
        read: the same dicts, keys in the same order, by ``created_at``."""
        monkeypatch.setattr(store_module, "_IDS_PER_QUERY", per_query)
        points = list(spec.points())
        episode = {"rule": "kill-storm", "severity": "critical",
                   "state": "resolved", "fired_at": 200,
                   "resolved_at": 400, "value": 2.0, "message": "m"}
        store.record_success("s", points[0], {"latency_mean": 1.0}, 0.1,
                             alerts=[episode])
        store.record_failure("s", points[1], "boom", 0.2)
        store.record_success("s", points[2], {"latency_mean": 3.0}, 0.3,
                             alerts=[episode, dict(episode, state="firing",
                                                   resolved_at=None)])
        asked = [points[2].point_id, "no/such/point", points[3].point_id,
                 points[1].point_id, points[0].point_id]

        by_id = {entry["point_id"]: entry for entry in store.points("s")}
        want = [
            {"point_id": point_id,
             "wall_time": by_id[point_id]["wall_time"],
             "created_at": by_id[point_id]["created_at"],
             "report": by_id[point_id]["report"],
             "alerts": store.alerts("s").get(point_id, [])}
            for point_id in asked if point_id in by_id
        ]
        want.sort(key=lambda row: row["created_at"])
        got = store.journal_rows("s", asked)
        assert json.dumps(got) == json.dumps(want)
        assert [row["report"] for row in got] == [
            {"latency_mean": 1.0}, None, {"latency_mean": 3.0}]
        assert [len(row["alerts"]) for row in got] == [1, 0, 2]
        assert store.journal_rows("s", []) == []

    def test_rewrite_replaces_row(self, store, spec):
        point = next(iter(spec.points()))
        store.record_failure("s", point, "boom", 0.1, attempts=1)
        store.record_success("s", point, {"latency_mean": 1.0}, 0.2,
                             attempts=2)
        (row,) = store.rows("s")
        assert row["status"] == "ok" and row["attempts"] == 2


class TestDurability:
    def test_survives_reopen(self, tmp_path, spec):
        path = str(tmp_path / "c.sqlite")
        with CampaignStore(path) as store:
            store.register(spec)
            store.record_success(
                "s", next(iter(spec.points())), {"latency_mean": 1.0}, 0.1
            )
        with CampaignStore(path) as store:
            assert store.summary("s")["ok"] == 1
            assert store.spec("s") == spec

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "c.sqlite")
        with CampaignStore(path):
            pass
        assert sqlite3.connect(path).execute(
            "SELECT COUNT(*) FROM campaigns"
        ).fetchone()[0] == 0

    def test_summary_empty_campaign(self, store):
        summary = store.summary("ghost")
        assert summary["ok"] == 0 and summary["failed"] == 0


def span_row(span_id, kind="run", status="ok", worker_id="w1",
             point_id=None, trace_id="t" * 32, parent_id=None,
             start_ts=1.0, end_ts=2.0, **attrs):
    return {
        "trace_id": trace_id, "span_id": span_id,
        "parent_id": parent_id, "name": f"{kind} {span_id}",
        "kind": kind, "worker_id": worker_id, "point_id": point_id,
        "start_ts": start_ts,
        "end_ts": None if status == "open" else end_ts,
        "status": status, "attrs": attrs,
    }


class TestSpanJournal:
    def test_record_and_read_back(self, store, spec):
        store.register(spec)
        store.record_spans("s", [
            span_row("a" * 16, kind="root", status="open", end_ts=None,
                     worker_id="coordinator", executor="fabric"),
            span_row("b" * 16, kind="run", point_id="p1",
                     parent_id="a" * 16, start_ts=1.5, attempt=1),
        ])
        spans = store.spans("s")
        assert [s["span_id"] for s in spans] == ["a" * 16, "b" * 16]
        assert spans[0]["attrs"] == {"executor": "fabric"}
        assert spans[1]["parent_id"] == "a" * 16
        assert store.span_counts("s") == {"open": 1, "ok": 1}

    def test_open_spans_update_closed_spans_are_immutable(self, store, spec):
        store.register(spec)
        store.record_spans("s", [span_row("a" * 16, kind="lease",
                                          status="open", end_ts=None)])
        # re-journaling an open span refreshes it (lease renewal)
        store.record_spans("s", [span_row("a" * 16, kind="lease",
                                          status="ok", end_ts=9.0)])
        (span,) = store.spans("s")
        assert span["status"] == "ok" and span["end_ts"] == 9.0
        # ... but a late write against the now-closed span is dropped:
        # a zombie worker cannot flip an aborted/closed span back open
        store.record_spans("s", [span_row("a" * 16, kind="lease",
                                          status="open", end_ts=None)])
        (span,) = store.spans("s")
        assert span["status"] == "ok" and span["end_ts"] == 9.0

    def test_fenced_result_write_discards_its_spans(self, store, spec):
        store.register(spec)
        points = list(spec.points())
        (lease,) = store.acquire_leases(
            "s", "w1", [(points[0].point_id, None)], 1, ttl=60.0,
            now=100.0,
        )
        # the write fences on (worker, attempt); a stale fence loses
        wrote = store.record_success(
            "s", points[0], {"latency_mean": 1.0}, 0.1,
            fence=("ghost", lease.attempt),
            spans=[span_row("a" * 16, point_id=points[0].point_id)],
        )
        assert not wrote
        assert store.spans("s") == []
        # the current owner's write lands, spans and all
        wrote = store.record_success(
            "s", points[0], {"latency_mean": 1.0}, 0.1,
            fence=("w1", lease.attempt),
            spans=[span_row("a" * 16, point_id=points[0].point_id)],
        )
        assert wrote
        assert len(store.spans("s")) == 1

    def test_reclaim_closes_the_dead_owners_open_spans(self, store, spec):
        store.register(spec)
        points = list(spec.points())
        candidates = [(points[0].point_id, None)]
        (lease,) = store.acquire_leases("s", "dead", candidates, 1,
                                        ttl=10.0, now=100.0)
        store.record_spans("s", [
            span_row("a" * 16, kind="lease", status="open",
                     end_ts=None, worker_id="dead",
                     point_id=points[0].point_id),
            span_row("b" * 16, kind="run", status="open", end_ts=None,
                     worker_id="dead", point_id=points[0].point_id),
            span_row("c" * 16, kind="worker", status="open",
                     end_ts=None, worker_id="dead"),
        ])
        # past the TTL another worker takes over; the transfer closes
        # the dead owner's open spans *for that point* as aborted
        (taken,) = store.acquire_leases("s", "w2", candidates, 1,
                                        ttl=10.0, now=200.0)
        assert taken.reclaimed and taken.worker_id == "w2"
        by_id = {s["span_id"]: s for s in store.spans("s")}
        assert by_id["a" * 16]["status"] == "aborted"
        assert by_id["a" * 16]["end_ts"] == 200.0
        assert by_id["b" * 16]["status"] == "aborted"
        # the worker's session span is not point-scoped: untouched here
        assert by_id["c" * 16]["status"] == "open"

    def test_close_open_spans_sweep(self, store, spec):
        store.register(spec)
        store.record_spans("s", [
            span_row("a" * 16, kind="root", status="open", end_ts=None,
                     worker_id="coordinator"),
            span_row("b" * 16, kind="worker", status="open",
                     end_ts=None, worker_id="w1"),
            span_row("c" * 16, kind="run", status="ok"),
        ])
        assert store.close_open_spans("s", now=50.0) == 2
        assert store.span_counts("s") == {"aborted": 2, "ok": 1}
        assert store.close_open_spans("s") == 0

    def test_open_root_span_lookup(self, store, spec):
        store.register(spec)
        assert store.open_root_span("s") is None
        store.record_spans("s", [
            span_row("a" * 16, kind="root", status="open", end_ts=None,
                     worker_id="coordinator"),
        ])
        root = store.open_root_span("s")
        assert root["span_id"] == "a" * 16
        store.close_open_spans("s")
        assert store.open_root_span("s") is None

    def test_heartbeat_carries_span_and_tallies(self, store, spec):
        store.register(spec)
        store.worker_heartbeat("s", "w1", span="run p1 aaaaaaaa",
                               spans=7)
        (row,) = store.workers("s")
        assert row["span"] == "run p1 aaaaaaaa"
        # the v5 logs column stays in the table, no longer written
        assert row["spans"] == 7 and row["logs"] == 0


def v4_store(path):
    """A store as schema v4 left it: today's tables but ``spans``, a
    ``workers`` table without the span/spans/logs columns, and no
    ``user_version`` stamp."""
    conn = sqlite3.connect(path)
    for statement in store_module._TABLES.split(";"):
        if statement.strip() and not any(
                f"EXISTS {table} " in statement
                for table in ("workers", "spans")):
            conn.execute(statement)
    conn.execute("""
        CREATE TABLE workers (
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
            PRIMARY KEY (campaign, worker_id)
        )
    """)
    conn.execute(
        "INSERT INTO workers (campaign, worker_id, started_at, "
        "last_seen) VALUES ('s', 'w1', 1.0, 2.0)"
    )
    conn.commit()
    conn.close()
    return path


def user_version(path):
    conn = sqlite3.connect(path)
    try:
        return conn.execute("PRAGMA user_version").fetchone()[0]
    finally:
        conn.close()


def traced_open(monkeypatch, path):
    """Open a store read-write; returns it with the SQL it ran."""
    statements = []
    real = sqlite3.connect

    def connect(*args, **kwargs):
        conn = real(*args, **kwargs)
        conn.set_trace_callback(statements.append)
        return conn

    monkeypatch.setattr(store_module.sqlite3, "connect", connect)
    store = CampaignStore(path)
    monkeypatch.setattr(store_module.sqlite3, "connect", real)
    return store, statements


def schema_statements(statements):
    return [sql for sql in statements
            if any(word in sql.upper()
                   for word in ("CREATE", "ALTER", "JOURNAL_MODE"))]


class TestSchemaMigration:
    def test_v4_workers_table_gains_span_columns(self, tmp_path):
        # A store created before schema v5 has a workers table without
        # span/spans/logs; CREATE TABLE IF NOT EXISTS will not add
        # them, so opening must migrate via ALTER TABLE.
        path = v4_store(str(tmp_path / "old.sqlite"))
        assert user_version(path) == 0
        with CampaignStore(path) as store:
            (row,) = store.workers("s")
            assert row["span"] == "" and row["spans"] == 0
            assert row["logs"] == 0
            store.worker_heartbeat("s", "w1", span="x y", spans=1)
            (row,) = store.workers("s")
            assert row["spans"] == 1
        assert user_version(path) == STORE_SCHEMA_VERSION


class TestSchemaStamp:
    """``PRAGMA user_version`` holds the schema version: an open runs
    DDL only below :data:`STORE_SCHEMA_VERSION`."""

    def test_a_stamped_store_opens_without_ddl(self, tmp_path,
                                               monkeypatch):
        path = v4_store(str(tmp_path / "old.sqlite"))
        store, statements = traced_open(monkeypatch, path)
        store.close()
        assert any("ALTER TABLE workers" in sql for sql in statements)
        assert user_version(path) == STORE_SCHEMA_VERSION

        store, statements = traced_open(monkeypatch, path)
        with store:
            assert schema_statements(statements) == []
            assert store.workers("s")[0]["spans"] == 0

    def test_a_fresh_store_is_created_and_stamped(self, tmp_path):
        path = str(tmp_path / "new.sqlite")
        with CampaignStore(path) as store:
            assert store._conn.execute(
                "PRAGMA journal_mode").fetchone()[0] == "wal"
        assert user_version(path) == STORE_SCHEMA_VERSION

    def test_a_newer_stamp_is_kept(self, tmp_path, monkeypatch):
        path = str(tmp_path / "new.sqlite")
        CampaignStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {STORE_SCHEMA_VERSION + 1}")
        conn.close()
        store, statements = traced_open(monkeypatch, path)
        store.close()
        assert schema_statements(statements) == []
        assert user_version(path) == STORE_SCHEMA_VERSION + 1

    def test_readonly_leaves_an_unstamped_store_alone(self, tmp_path):
        path = v4_store(str(tmp_path / "old.sqlite"))
        with open(path, "rb") as handle:
            before = handle.read()
        with CampaignStore(path, readonly=True) as store:
            assert store.spec("s") is None
        with open(path, "rb") as handle:
            assert handle.read() == before
        assert user_version(path) == 0

    @pytest.mark.parametrize("readonly", [False, True])
    def test_a_file_that_is_no_database_is_refused(self, tmp_path,
                                                   readonly):
        path = tmp_path / "junk.sqlite"
        path.write_bytes(b"no sqlite here, " * 64)
        with pytest.raises(sqlite3.DatabaseError):
            CampaignStore(str(path), readonly=readonly)

    def test_an_in_memory_store_is_created_every_time(self, spec):
        for _ in range(2):
            with CampaignStore(":memory:") as store:
                store.register(spec)
                assert store.spec("s") == spec
