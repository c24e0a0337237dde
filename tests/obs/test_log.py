"""The campaign log: a traced campaign's stored spans as filtered lines
(``cr-sim campaign logs``)."""

import json

import pytest

from repro.campaign import CampaignStore
from repro.campaign.timeline import (
    LOG_LEVELS,
    filter_spans,
    format_span,
    span_level,
)
from repro.cli import main as cli_main


def span(span_id, start_ts, kind="run", status="ok", worker_id="w1",
         trace_id="abcd" * 8, end_ts=None, **attrs):
    return {
        "span_id": span_id, "trace_id": trace_id, "parent_id": None,
        "name": f"{kind} {span_id}", "kind": kind,
        "worker_id": worker_id, "point_id": None,
        "start_ts": start_ts,
        "end_ts": (None if status == "open"
                   else start_ts + 0.5 if end_ts is None else end_ts),
        "status": status, "attrs": attrs,
    }


class TestSpanLevels:
    @pytest.mark.parametrize("kind, status, level", [
        ("run", "error", "error"),
        ("renew", "error", "error"),
        ("lease", "aborted", "warning"),
        ("worker", "aborted", "warning"),
        ("renew", "ok", "debug"),
        ("lease", "ok", "info"),
        ("root", "open", "info"),
    ])
    def test_status_then_kind_sets_the_level(self, kind, status, level):
        assert span_level(span("a", 1.0, kind=kind,
                               status=status)) == level

    def test_levels_rank_least_to_most_severe(self):
        assert LOG_LEVELS == ("debug", "info", "warning", "error")


class TestFilterAndFormat:
    SPANS = [
        span("a" * 16, 1.0, kind="renew", worker_id="w1"),
        span("b" * 16, 2.0, kind="lease", status="aborted",
             worker_id="w2", trace_id="ffff" * 8),
        span("c" * 16, 3.0, kind="run", status="error", worker_id="w1"),
        span("d" * 16, 4.0, kind="journal", worker_id="w2"),
    ]

    def ids(self, spans):
        return [s["span_id"][0] for s in spans]

    def test_by_worker(self):
        out = filter_spans(self.SPANS, worker="w1", level="debug")
        assert self.ids(out) == ["a", "c"]

    def test_level_is_a_floor(self):
        # info, the default, hides lease renewals
        assert self.ids(filter_spans(self.SPANS)) == ["b", "c", "d"]
        assert self.ids(filter_spans(self.SPANS, level="debug")) == [
            "a", "b", "c", "d"]
        assert self.ids(filter_spans(self.SPANS, level="warning")) == [
            "b", "c"]
        assert self.ids(filter_spans(self.SPANS, level="error")) == ["c"]

    def test_by_trace_prefix(self):
        assert self.ids(filter_spans(self.SPANS, trace="ffff")) == ["b"]
        assert self.ids(filter_spans(self.SPANS, level="debug",
                                     trace="abcd" * 8)) == ["a", "c", "d"]
        # a sub-4-char prefix is too ambiguous: exact match only
        assert filter_spans(self.SPANS, trace="abc") == []

    def test_filters_compose(self):
        out = filter_spans(self.SPANS, worker="w2", level="warning",
                           trace="ffff")
        assert self.ids(out) == ["b"]
        assert filter_spans(self.SPANS, worker="w1",
                            trace="ffff") == []

    def test_format_line(self):
        line = format_span(span("cd" * 8, 30.25, kind="lease",
                                worker_id="w1", attempt=2))
        assert "INFO" in line
        assert "w1" in line
        assert f"lease/lease {'cd' * 8} ok 0.500s attempt=2" in line
        assert line.endswith(f"[span {'cd' * 4}]")

    def test_format_tolerates_missing_fields(self):
        # an open span has no end; a lifecycle span may carry no attrs
        # and an unnamed worker
        line = format_span(span("e" * 16, 1.0, kind="worker",
                                status="open", worker_id=""))
        assert f"worker/worker {'e' * 16} open - [span eeeeeeee]" in line
        assert " -  " in line  # the unnamed worker's column


class TestCampaignLogs:
    @pytest.fixture
    def db(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        with CampaignStore(path) as store:
            # journaled out of start order, across two workers
            store.record_spans("c", [
                span("c" * 16, 3.0, kind="journal", worker_id="w2"),
                span("a" * 16, 1.0, kind="root", worker_id="coordinator"),
                span("d" * 16, 4.0, kind="renew", worker_id="w1"),
                span("b" * 16, 2.0, kind="lease", status="aborted",
                     worker_id="w1"),
            ])
        return path

    def logs(self, capsys, db, *flags):
        assert cli_main(["campaign", "logs", "c", "--db", db,
                         *flags]) == 0
        captured = capsys.readouterr()
        assert "span(s) of campaign 'c'" in captured.err
        return captured.out.splitlines()

    def test_lines_follow_start_ts_across_workers(self, db, capsys):
        lines = self.logs(capsys, db, "--level", "debug")
        assert [line.split()[2] for line in lines] == [
            "coordinator", "w1", "w2", "w1"]
        assert [line[-9:-1] for line in lines] == [
            "aaaaaaaa", "bbbbbbbb", "cccccccc", "dddddddd"]

    def test_json_is_the_stored_spans(self, db, capsys):
        lines = self.logs(capsys, db, "--json", "--level", "debug")
        with CampaignStore(db, readonly=True) as store:
            stored = sorted(store.spans("c"),
                            key=lambda s: s["start_ts"])
        assert [json.loads(line) for line in lines] == stored

    def test_flags_filter_and_tail(self, db, capsys):
        assert len(self.logs(capsys, db)) == 3  # renew hidden at info
        (line,) = self.logs(capsys, db, "--worker", "w1")
        assert "WARNING" in line and "lease/" in line
        (line,) = self.logs(capsys, db, "--tail", "1", "--level",
                            "debug")
        assert "renew/" in line
        assert self.logs(capsys, db, "--tail", "0") == []
        assert self.logs(capsys, db, "--trace", "abc") == []
        assert len(self.logs(capsys, db, "--trace", "abcd")) == 3


class TestStructuredLogger:
    """A campaign's structured log is its stored spans; the level
    threshold is applied when the log is read."""

    def test_level_threshold_drops_below(self, tmp_path, capsys):
        db = str(tmp_path / "c.sqlite")
        with CampaignStore(db) as store:
            store.record_spans("c", [
                span("a" * 16, 1.0, kind="renew"),                   # debug
                span("b" * 16, 2.0, kind="lease"),                   # info
                span("c" * 16, 3.0, kind="lease", status="aborted"),  # warning
                span("d" * 16, 4.0, kind="run", status="error"),      # error
            ])
        assert cli_main(["campaign", "logs", "c", "--db", db,
                         "--level", "warning"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line[-9:-1] for line in lines] == ["cccccccc", "dddddddd"]
        assert "WARNING" in lines[0] and "ERROR" in lines[1]
        assert captured.err.startswith("2 span(s) of campaign 'c'")
