"""Event sinks: an unbounded list and a JSONL file.

A sink is anything with ``on_event(event)``; subscribe it to the
:class:`~repro.obs.events.EventBus` with :func:`repro.obs.attach`.

* :class:`ListSink` -- keeps every event; feeds the Perfetto exporter,
  which needs span open/close pairs from the whole run, and deadlock
  forensics, which reads its last events.
* :class:`JsonlSink` -- streams one JSON object per event to a file
  under ``results/traces/`` (or wherever pointed); survives crashes up
  to the last flushed line.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Any, Dict, List

from .events import Event, event_to_dict

#: default home for trace artifacts, next to the exported figure CSVs.
DEFAULT_TRACE_DIR = os.path.join("results", "traces")


class ListSink:
    """Keeps every event (unbounded; use for short traced runs)."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def on_event(self, event: Event) -> None:
        self.events.append(event)


class JsonlSink:
    """Writes one JSON object per event, newline-delimited.

    Parent directories are created; :func:`read_jsonl` parses a trace
    back into dicts.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle = open(self.path, "w", encoding="utf-8")

    def write(self, record: Dict[str, Any]) -> None:
        """Append one already-flat JSON-safe dict as a line."""
        self._handle.write(json.dumps(record))
        self._handle.write("\n")

    def on_event(self, event: Event) -> None:
        self.write(event_to_dict(event))

    def close(self) -> None:
        """Release the file; safe to call more than once."""
        if not self._handle.closed:
            self._handle.close()


class ReadResult(List[dict]):
    """The records :func:`read_jsonl` parsed, plus per-call metadata.

    A plain ``list`` subclass, so every existing caller keeps working;
    ``truncated`` carries how many crash-truncated trailing lines this
    particular call dropped (0 or 1); being per call, concurrent
    readers cannot race on it.
    """

    truncated: int = 0


def read_jsonl(path: str) -> ReadResult:
    """Parse a JSONL trace file back into event dicts.

    Raises ``ValueError`` (from ``json``) on a malformed line -- the CI
    smoke job uses this as the "artifact parses" assertion -- with one
    exception: a malformed *final* line with no trailing newline is a
    crash-truncated record (the writer died mid-line), so it is dropped
    with a warning and reported on the returned
    :class:`ReadResult`'s ``truncated`` attribute instead of failing
    the whole trace.
    """
    out = ReadResult()
    with open(path, "r", encoding="utf-8") as handle:
        raw_lines = handle.readlines()
    for index, raw in enumerate(raw_lines):
        line = raw.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except ValueError:
            last = index == len(raw_lines) - 1
            if last and not raw.endswith("\n"):
                out.truncated += 1
                warnings.warn(
                    f"dropping truncated final JSONL line in {path!r} "
                    f"({len(raw)} bytes; writer likely killed mid-record)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
            raise
    return out


def filter_events(events: List[dict], name: str) -> List[dict]:
    """Event dicts of one type from a parsed JSONL trace."""
    return [e for e in events if e.get("event") == name]
