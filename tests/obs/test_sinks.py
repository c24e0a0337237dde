"""Sinks: list semantics, JSONL round-trips, artifact parsing."""

import json
import os
import signal
import subprocess
import sys
import threading
import warnings

import pytest

from repro.obs.events import MessageCreated, Retransmit
from repro.obs.sinks import (
    JsonlSink,
    ListSink,
    filter_events,
    read_jsonl,
)


def make_events(n):
    return [
        MessageCreated(cycle, uid=cycle, src=0, dst=1, payload_length=4)
        for cycle in range(n)
    ]


class TestListSink:
    def test_keeps_everything_in_order(self):
        sink = ListSink()
        events = make_events(7)
        for event in events:
            sink.on_event(event)
        assert sink.events == events


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        sink.on_event(MessageCreated(3, uid=9, src=1, dst=2,
                                     payload_length=8))
        sink.on_event(Retransmit(10, uid=9, attempt=1, gap=4,
                                 retransmit_at=14))
        sink.close()
        parsed = read_jsonl(path)
        assert parsed == [
            {"event": "MessageCreated", "cycle": 3, "uid": 9, "src": 1,
             "dst": 2, "payload_length": 8},
            {"event": "Retransmit", "cycle": 10, "uid": 9, "attempt": 1,
             "gap": 4, "retransmit_at": 14},
        ]

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "t.jsonl")
        JsonlSink(path).close()
        assert read_jsonl(path) == []

    def test_close_twice_is_safe(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "MessageCreated"}\n{oops\n')
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(str(path))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"event": "A"}\n\n{"event": "B"}\n')
        assert [e["event"] for e in read_jsonl(str(path))] == ["A", "B"]

    def test_truncated_final_line_is_dropped_with_warning(self, tmp_path):
        # A crash mid-write leaves a partial record with no trailing
        # newline: every complete line still parses, the fragment is
        # dropped, and the reader warns instead of raising.
        path = tmp_path / "crashed.jsonl"
        path.write_text(
            '{"event": "A", "cycle": 1}\n'
            '{"event": "B", "cycle": 2}\n'
            '{"event": "C", "cy'
        )
        with pytest.warns(RuntimeWarning, match="truncated"):
            events = read_jsonl(str(path))
        assert [e["event"] for e in events] == ["A", "B"]
        assert events.truncated == 1

    def test_newline_terminated_garbage_still_raises(self, tmp_path):
        # Only the crash-truncation shape is tolerated: a malformed
        # line that *was* fully written (trailing newline) is real
        # corruption and must keep raising, even in final position.
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"event": "A"}\n{oops}\n')
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(str(path))


class TestReadResultTruncation:
    @staticmethod
    def _truncated_file(tmp_path, name):
        path = tmp_path / name
        path.write_text('{"event": "A"}\n{"event": "B", "cy')
        return str(path)

    def test_per_call_truncated_attribute(self, tmp_path):
        path = self._truncated_file(tmp_path, "one.jsonl")
        with pytest.warns(RuntimeWarning):
            result = read_jsonl(path)
        assert result.truncated == 1
        assert [e["event"] for e in result] == ["A"]
        # a clean file reports zero
        clean = tmp_path / "clean.jsonl"
        clean.write_text('{"event": "A"}\n')
        assert read_jsonl(str(clean)).truncated == 0

    def test_result_is_still_a_plain_list(self, tmp_path):
        clean = tmp_path / "clean.jsonl"
        clean.write_text('{"event": "A"}\n')
        result = read_jsonl(str(clean))
        assert isinstance(result, list)
        assert result + [{"event": "B"}] == [{"event": "A"},
                                             {"event": "B"}]

    def test_concurrent_readers_do_not_race(self, tmp_path):
        # Each call reports its own ReadResult.truncated: there is no
        # shared tally for N threads reading truncated traces to
        # interleave a read-modify-write on.
        paths = [self._truncated_file(tmp_path, f"t{i}.jsonl")
                 for i in range(8)]
        results = [None] * len(paths)
        barrier = threading.Barrier(len(paths))

        def reader(index):
            barrier.wait()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                results[index] = read_jsonl(paths[index])

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(len(paths))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [r.truncated for r in results] == [1] * len(paths)
        assert all([e["event"] for e in r] == ["A"] for r in results)


class TestFsyncDurability:
    def test_sigkilled_writer_loses_at_most_the_open_record(self, tmp_path):
        # Reuses the chaos harness's kill shape: a subprocess writes
        # and flushes five records, leaves a partial line in the OS
        # file buffer, and SIGKILLs itself — no atexit, no close.  The
        # reader must recover every flushed record and drop only the
        # torn tail.
        path = tmp_path / "killed.jsonl"
        script = f"""
import json, os, signal
import repro.obs.sinks as sinks
sink = sinks.JsonlSink({str(path)!r})
for cycle in range(5):
    sink.write({{"event": "beat", "cycle": cycle}})
sink._handle.flush()
# a record the writer never finishes: no newline, no fsync
sink._handle.write('{{"event": "beat", "cy')
sink._handle.flush()
os.kill(os.getpid(), signal.SIGKILL)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"),
                        os.path.join(os.path.dirname(__file__),
                                     "..", "..", "src"))
            if p
        )
        proc = subprocess.run([sys.executable, "-c", script], env=env)
        assert proc.returncode == -signal.SIGKILL
        with pytest.warns(RuntimeWarning, match="truncated"):
            events = read_jsonl(str(path))
        assert events.truncated == 1
        assert [e["cycle"] for e in events] == [0, 1, 2, 3, 4]

    def test_default_stays_buffered(self, tmp_path):
        synced = []
        try:
            import repro.obs.sinks as sinks_mod

            real_fsync = sinks_mod.os.fsync
            sinks_mod.os.fsync = lambda fd: synced.append(fd)
            sink = JsonlSink(str(tmp_path / "t.jsonl"))
            for cycle in range(10):
                sink.write({"cycle": cycle})
            sink.close()
        finally:
            sinks_mod.os.fsync = real_fsync
        assert synced == []


class TestFilterEvents:
    def test_by_name_and_passthrough(self):
        events = [{"event": "A"}, {"event": "B"}, {"event": "A"}]
        assert filter_events(events, "A") == [{"event": "A"}] * 2
        assert filter_events(events, "C") == []
